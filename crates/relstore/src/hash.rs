//! The executor's hasher, for the hash tables it keys by [`Value`]: the
//! hash-join build map and the aggregator's groups.
//!
//! std's default, SipHash-1-3, spends more time per key than these tables
//! spend on the rest of a probe, since their keys are short: an integer id
//! or an owner name of a few bytes. This one folds each 8-byte word into
//! the state with one widening multiply (the high and low halves of the
//! 128-bit product XORed together, the mixing step of foldhash and
//! wyhash). The state starts from a seed drawn once per process from std's
//! `RandomState`, so bucket order differs between runs as std's does and
//! no input is known in advance to collide. It is not a cryptographic
//! hash; the keys it sees are values the database already holds.
//!
//! [`Value`]: crate::value::Value

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// A `HashMap` hashed by [`FoldState`].
pub(crate) type FoldMap<K, V> = HashMap<K, V, FoldState>;

/// 2^64 divided by the golden ratio, rounded to odd. Its multiples spread
/// over the 64-bit circle as evenly as any constant's can (Knuth's
/// Fibonacci hashing): a constant with a close rational approximation —
/// the digits of π, say — sends runs of consecutive ids to a few buckets.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The folded multiply: the 128-bit product of `x` and `y`, its halves
/// XORed. Every input bit reaches both halves of the result.
#[inline]
fn fold(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds [`FoldHasher`]s from the per-process seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldState {
    seed: u64,
}

impl Default for FoldState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(MULTIPLIER));
        FoldState { seed }
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// The hasher [`FoldState`] builds; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("chunks of eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = fold(self.state ^ i, MULTIPLIER);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::collections::HashSet;

    #[test]
    fn equal_values_hash_alike_and_distinct_keys_spread() {
        let seeded = (0..16u64).map(|i| FoldState { seed: i.wrapping_mul(0x2545_f491_4f6c_dd1d) });
        for state in seeded.chain([FoldState::default()]) {
            assert_eq!(state.hash_one(Value::Int(3)), state.hash_one(Value::Double(3.0)));
            assert_eq!(state.hash_one(Value::from("user07")), state.hash_one(Value::from("user07")));
            // A table's bucket is picked by the low bits and its control
            // byte by the top seven: both must tell keys apart. 1,000 keys
            // thrown at 4,096 slots fill about 887 of them.
            let spread = |keys: &[Value], bits: fn(u64) -> u64| {
                keys.iter().map(|k| bits(state.hash_one(k))).collect::<HashSet<_>>().len()
            };
            let ids: Vec<Value> = (0..1000i64).map(Value::Int).collect();
            let names: Vec<Value> = (0..1000).map(|i| Value::from(format!("user{i:03}"))).collect();
            for keys in [&ids, &names] {
                assert!(spread(keys, |h| h & 0xfff) > 800);
                assert!(spread(keys, |h| h >> 52) > 800);
            }
        }
    }

    #[test]
    fn every_state_shares_the_process_seed() {
        let (a, b) = (FoldState::default(), FoldState::default());
        assert_eq!(a.hash_one("owner"), b.hash_one("owner"));
    }
}
