//! `nba-matcher`: pattern-matching substrate for the IDS application.
//!
//! The paper's IDS "uses Aho-Corasick algorithm for signature matching and
//! PCRE for regular expression matching with their DFA forms using standard
//! approaches". This crate provides both:
//!
//! * [`aho::AhoCorasick`] — multi-pattern matching compiled to a dense DFA
//!   (trie + BFS failure links collapsed into one transition table, a
//!   column per byte class), scanned one haystack at a time or a batch of
//!   them in lockstep,
//! * [`regex::Regex`] — a PCRE-subset engine (parser → Thompson NFA →
//!   subset-construction DFA) with IDS search-anywhere semantics.
//!
//! Both expose a raw `step(state, byte)` interface so the simulated GPU
//! kernels run exactly the same automata as the CPU elements.

#![forbid(unsafe_code)]

pub mod aho;
pub mod regex;

pub use aho::AhoCorasick;
pub use regex::{Regex, RegexError};
