//! The hasher behind the generators' membership sets.
//!
//! The standard library's SipHash is keyed per process and built to
//! resist flooding by chosen keys; the sets here hold node and label ids
//! the crate draws itself, so that strength buys nothing, and it cost
//! about 40 % of the time to generate a `clustered_blocks` graph
//! (25 blocks of 512 nodes, on a 2-core Xeon). This is the
//! rotate-xor-multiply mix rustc uses for its own tables: one rotate,
//! one xor and one multiply per word, with no key, so a set behaves the
//! same in every process. Nothing iterates these sets in an order that
//! reaches an output: they answer membership only, or are sorted before
//! use.
//!
//! The keys are ids the program assigns — dense node indices and
//! interned labels, in order of first appearance — so a triples file
//! chooses which ids it connects but not the ids themselves. The hash
//! is not built to withstand keys chosen to collide; a set whose keys a
//! caller picks outright keeps the standard hasher.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashSet` hashed by [`WordHasher`].
pub(crate) type WordSet<T> = HashSet<T, BuildHasherDefault<WordHasher>>;

/// A keyless multiplicative hasher for integer keys.
#[derive(Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

/// ⌊2⁶⁴/π⌋: odd, with bits spread over the whole word, so the multiply
/// carries every input bit into the high bits the table reads.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for WordHasher {
    /// The multiply leaves its best-mixed bits at the top; the rotate
    /// brings them down to the low bits a table indexes its buckets by.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_keeps_every_distinct_key_once() {
        let mut set: WordSet<(u32, u32, u32)> = WordSet::default();
        for i in 0..2_000u32 {
            assert!(set.insert((i % 50, i % 3, i / 50)));
            assert!(!set.insert((i % 50, i % 3, i / 50)));
        }
        assert_eq!(set.len(), 2_000);
        assert!(set.contains(&(7, 1, 0)) && !set.contains(&(7, 0, 0)));
    }

    #[test]
    fn two_sets_hash_a_key_alike() {
        use std::hash::BuildHasher;
        // Each call builds a hasher of its own, as each set does.
        let hash = |key: (usize, usize)| BuildHasherDefault::<WordHasher>::default().hash_one(key);
        assert_eq!(hash((1, 2)), hash((1, 2)));
        assert_ne!(hash((1, 2)), hash((2, 1)));
    }
}
