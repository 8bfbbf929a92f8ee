//! Seeded input generation. Every workload derives all of its inputs from
//! the `--seed` argument through this generator, so the same seed always
//! produces the same operation stream; the program under test only ever sees
//! the generated inputs.

/// SplitMix64: small, fast, and good enough to shape a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for a sub-generator (a round, a connection).
    pub fn fork(&self, tag: u64) -> Rng {
        let mut child = Rng(self.0 ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for every `n` used here.
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// A shuffled deck of op classes with exact proportions: every seed draws
/// exactly `weights[i]` ops of class `i` per pass through the deck, only
/// their order differs. (Drawing each op independently would let the count
/// of a rare, costly class vary by ±20 % between seeds, and the run's
/// throughput with it.)
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<u8>,
    next: usize,
}

impl Deck {
    pub fn new(weights: &[usize]) -> Deck {
        let cards = weights
            .iter()
            .enumerate()
            .flat_map(|(class, n)| std::iter::repeat_n(class as u8, *n))
            .collect();
        Deck {
            cards,
            next: usize::MAX,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.next >= self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i as u64 + 1) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1] as usize
    }
}

/// FNV-1a over a stream of integers: the op-stream fingerprint the
/// determinism test and the run header print.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn push(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = Rng::new(1);
        let mut seen = [false; 11];
        for _ in 0..2000 {
            let v = r.range(5, 15);
            assert!((5..=15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn deck_deals_exact_proportions_in_seeded_order() {
        let weights = [45, 15, 15, 15, 8, 2];
        let mut counts = [0usize; 6];
        let (mut deck, mut rng) = (Deck::new(&weights), Rng::new(3));
        let first: Vec<usize> = (0..300).map(|_| deck.draw(&mut rng)).collect();
        for c in &first {
            counts[*c] += 1;
        }
        assert_eq!(counts, [135, 45, 45, 45, 24, 6]);
        let (mut deck2, mut rng2) = (Deck::new(&weights), Rng::new(4));
        let other: Vec<usize> = (0..300).map(|_| deck2.draw(&mut rng2)).collect();
        assert_ne!(first, other);
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        let root = Rng::new(42);
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
        assert_eq!(root.fork(1).next_u64(), root.fork(1).next_u64());
    }
}
