//! The bit-serial Toeplitz hash, exactly as the Microsoft RSS specification
//! states it: a 32-bit window slides over the key one bit per input bit,
//! and every set input bit XORs the window into the result. It is the
//! reference the byte-table hasher is checked against, so it is compiled
//! only into tests (the unit tests include it as a module, and
//! `tests/toeplitz_props.rs` includes this file by path).

/// Hashes `input` under `key`, one input bit at a time.
pub fn hash(key: &[u8; 40], input: &[u8]) -> u32 {
    // The running 32-bit key window starts at the key's first 4 bytes and
    // shifts left one bit per input bit.
    let mut window = u64::from(u32::from_be_bytes(key[0..4].try_into().unwrap())) << 32
        | u64::from(u32::from_be_bytes(key[4..8].try_into().unwrap()));
    let mut next_key_byte = 8;
    let mut bits_used = 0u32;
    let mut result = 0u32;
    for &byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                result ^= (window >> 32) as u32;
            }
            window <<= 1;
            bits_used += 1;
            if bits_used == 8 {
                bits_used = 0;
                if next_key_byte < key.len() {
                    window |= u64::from(key[next_key_byte]);
                    next_key_byte += 1;
                }
            }
        }
    }
    result
}
