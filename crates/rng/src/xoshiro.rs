//! Xoshiro256++ — Blackman & Vigna's all-purpose 256-bit generator.
//!
//! Period 2^256 − 1, passes BigCrush, and provides polynomial `jump`
//! functions that advance the state by 2^128 (resp. 2^192) steps, so
//! jumped copies of one generator give non-overlapping streams.

use crate::{RandomSource, SplitMix64};

/// The xoshiro256++ generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from four raw state words.
    ///
    /// # Panics
    /// Panics if all four words are zero (the one forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro256++ state must not be all-zero");
        Self { s }
    }

    /// Seeds the 256-bit state from a single `u64` via SplitMix64, as the
    /// authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self::from_state([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()])
    }

    /// Advances the state by 2^128 steps: 2^128 non-overlapping
    /// subsequences are available for parallel use.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] =
            [0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C, 0xA9582618E03FC9AA, 0x39ABDC4529B1661C];
        self.polynomial_jump(&JUMP);
    }

    /// Advances the state by 2^192 steps, for partitioning between
    /// distributed runs rather than threads.
    pub fn long_jump(&mut self) {
        const LONG_JUMP: [u64; 4] =
            [0x76E15D3EFEFDCBBF, 0xC5004E441C522FB3, 0x77710069854EE241, 0x39109BB02ACBE635];
        self.polynomial_jump(&LONG_JUMP);
    }

    fn polynomial_jump(&mut self, poly: &[u64; 4]) {
        let mut acc = [0u64; 4];
        for &word in poly {
            for b in 0..64 {
                if word & (1u64 << b) != 0 {
                    for (a, s) in acc.iter_mut().zip(&self.s) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }
}

impl RandomSource for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence() {
        // Reference outputs of xoshiro256plusplus.c with state {1, 2, 3, 4}.
        let mut g = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let expected: [u64; 8] = [
            41943041,
            58720359,
            3588806011781223,
            3591011842654386,
            9228616714210784205,
            9973669472204895162,
            14011001112246962877,
            12406186145184390807,
        ];
        for &e in &expected {
            assert_eq!(g.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "all-zero")]
    fn all_zero_state_rejected() {
        Xoshiro256pp::from_state([0; 4]);
    }

    #[test]
    fn jump_commutes_with_stepping_disjointness() {
        // After a jump, the next outputs must differ from the pre-jump
        // stream (sanity, not a full disjointness proof).
        let mut a = Xoshiro256pp::seed_from_u64(123);
        let mut b = a.clone();
        b.jump();
        let wa: Vec<u64> = (0..128).map(|_| a.next_u64()).collect();
        let wb: Vec<u64> = (0..128).map(|_| b.next_u64()).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn double_jump_equals_two_jumps() {
        let mut a = Xoshiro256pp::seed_from_u64(5);
        let mut b = a.clone();
        a.jump();
        a.jump();
        b.jump();
        b.jump();
        assert_eq!(a, b);
    }

    #[test]
    fn long_jump_differs_from_jump() {
        let base = Xoshiro256pp::seed_from_u64(5);
        let mut a = base.clone();
        let mut b = base.clone();
        a.jump();
        b.long_jump();
        assert_ne!(a, b);
    }

    #[test]
    fn seed_from_u64_deterministic() {
        let mut a = Xoshiro256pp::seed_from_u64(2024);
        let mut b = Xoshiro256pp::seed_from_u64(2024);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniformity_of_mean() {
        // Mean of 1e6 uniforms should be 0.5 within ~4 sigma (sigma = 1/sqrt(12 n)).
        let mut g = Xoshiro256pp::seed_from_u64(31415);
        let n = 1_000_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        let sigma = (1.0 / 12.0f64 / n as f64).sqrt();
        assert!((mean - 0.5).abs() < 4.0 * sigma, "mean={mean}");
    }
}
