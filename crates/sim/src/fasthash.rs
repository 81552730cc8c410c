//! A multiplicative hasher for the simulator's per-access maps.
//!
//! Their keys are line addresses, op ids and code sites that the model
//! itself produces, so std's SipHash buys no collision resistance worth its
//! per-access cost. A bare multiply is not enough either: hashbrown picks a
//! bucket from the low bits, and a line address (a multiple of 64) times an
//! odd constant keeps its six zero low bits, reaching 1/64 of the buckets.
//! [`FastHasher::finish`] folds the well-mixed high half down onto them.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A `HashSet` keyed through [`FastHasher`].
pub(crate) type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// An odd multiplier with well-mixed bits (2^64 divided by the golden ratio).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-and-fold hashing of integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    /// `Site` keys hash as one `u16`.
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// Distinct low-7-bit buckets reached by 128 consecutive line addresses.
    fn buckets(hash: impl Fn(u64) -> u64) -> usize {
        (0..128u64)
            .map(|i| hash(0x40_0000 + i * 64) & 127)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn line_addresses_spread_over_low_bits() {
        let build = BuildHasherDefault::<FastHasher>::default();
        let folded = buckets(|line| build.hash_one(line));
        assert!(
            folded >= 128 / 3,
            "folded hash reached {folded}/128 buckets"
        );
        let bare = buckets(|line| line.wrapping_mul(MULTIPLIER));
        assert_eq!(bare, 2, "a bare multiply keeps the six zero low bits");
    }
}
