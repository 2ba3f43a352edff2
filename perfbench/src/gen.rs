//! Seeded input generation. Every input the program receives — row
//! order, row patterns, the serve op stream, the yield master seed —
//! comes from here, from the benchmark's `--seed` alone. The generator
//! is the benchmark's own (SplitMix64), so a change to the library's
//! random-number code cannot change the inputs.

/// SplitMix64: small, fast, and fully specified by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for input stream `stream` of benchmark seed `seed`;
    /// distinct streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n >= 1`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Input stream ids, one per kind of generated input.
pub mod stream {
    /// Row visiting order of `array_rows`.
    pub const ROW_ORDER: u64 = 1;
    /// Row data patterns of `array_rows`.
    pub const ROW_PATTERN: u64 = 2;
    /// Op stream of `serve_mixed`.
    pub const SERVE_OPS: u64 = 3;
    /// Seeds handed to the program (serve RNG, yield master seed).
    pub const PROGRAM_SEED: u64 = 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(5, stream::SERVE_OPS);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(5, stream::SERVE_OPS);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix64::new(6, stream::SERVE_OPS);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut g = SplitMix64::new(5, stream::ROW_ORDER);
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn permutation_and_below_stay_in_range() {
        let mut g = SplitMix64::new(1, 0);
        let mut p = g.permutation(64);
        p.sort_unstable();
        assert_eq!(p, (0..64).collect::<Vec<_>>());
        assert!((0..1000).all(|_| g.below(7) < 7));
    }
}
