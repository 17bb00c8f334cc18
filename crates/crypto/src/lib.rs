//! `nba-crypto`: the cryptographic substrate of the IPsec gateway.
//!
//! The paper's gateway encrypts with AES-128-CTR (via OpenSSL + AES-NI on
//! the CPU, a CUDA kernel on the GPU) and authenticates with HMAC-SHA1
//! (RFC 2404 truncation). This crate implements those primitives from
//! scratch so the reproduced gateway really encrypts and authenticates —
//! integration tests decrypt its output and verify the ICVs. Performance
//! *costs* of the hardware paths are modeled in `nba-sim`'s cost model; the
//! implementations here provide the functional behaviour, and they are what
//! the live runtime's wall-clock numbers pay for, so they are written for
//! throughput in safe, portable Rust:
//!
//! - AES is table-driven: four 1 KiB `const` T-tables fold SubBytes,
//!   ShiftRows and MixColumns into one lookup per state byte over a state of
//!   four column words. CTR encrypts four counter blocks per step with their
//!   rounds interleaved, and XORs the keystream a block at a time.
//! - SHA-1 keeps a 16-word circular message schedule and runs its 80 rounds
//!   as straight-line code; whole blocks are compressed from the caller's
//!   slice and the padding is written in place. HMAC resumes from the two
//!   chaining values left by the padded key blocks.
//!
//! A benchmark substrate, not a production cipher: table lookups indexed by
//! secret bytes leak through cache timing (as the S-box they replaced did).
//!
//! Verified against FIPS-197 appendices, NIST SP 800-38A CTR vectors,
//! FIPS 180-4 SHA-1 vectors, and RFC 2202 HMAC vectors, and (AES) against a
//! byte-wise FIPS-197 reference kept for the tests.

#![forbid(unsafe_code)]

pub mod aes;
pub mod hmac;
pub mod sha1;

pub use aes::{Aes128, Aes128Ctr};
pub use hmac::HmacSha1;
pub use sha1::Sha1;
