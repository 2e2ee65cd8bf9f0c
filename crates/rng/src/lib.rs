//! Deterministic pseudo-random number generation for surface synthesis.
//!
//! The paper (§2.3) builds its Gaussian random number sets from the C
//! library's `rand()` via the Box–Muller transform (eqn 18). A libc RNG is
//! neither reproducible across platforms nor statistically adequate for
//! large surfaces, so this crate provides:
//!
//! * [`SplitMix64`] — a tiny seeding/stream-derivation generator;
//! * [`Xoshiro256pp`] — the workhorse generator, with `jump`/`long_jump`
//!   for provably non-overlapping parallel streams;
//! * [`Pcg32`] — an independent second family used to cross-check that
//!   surface statistics do not depend on the generator;
//! * [`gaussian`] — [`BoxMuller`], exactly as the paper's eqn (18).
//!
//! All generators implement the minimal [`RandomSource`] trait consumed by
//! the surface crates, so any of them can drive generation.

#![warn(missing_docs)]

pub mod gaussian;
pub mod pcg;
pub mod splitmix;
pub mod xoshiro;

pub use gaussian::BoxMuller;
pub use pcg::Pcg32;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256pp;

/// A source of uniformly distributed raw 64-bit words.
///
/// The trait is object-safe so generators can be boxed behind configuration.
pub trait RandomSource {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in the half-open interval `[0, 1)`, using the top 53
    /// bits of one output word.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 2^-53 scaling of 53 high bits gives a uniform dyadic rational.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in the open interval `(0, 1)`; never returns exactly
    /// zero. Needed where a logarithm of the deviate is taken (Box–Muller).
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        // Put a half-ulp offset on the 53-bit lattice: (n + 0.5) * 2^-53.
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` by Lemire's multiply-shift
    /// rejection method (unbiased).
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Fills a slice with uniform `[0, 1)` samples.
    fn fill_f64(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.next_f64();
        }
    }
}

impl<T: RandomSource + ?Sized> RandomSource for &mut T {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl<T: RandomSource + ?Sized> RandomSource for Box<T> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_f64_in_unit_interval() {
        let mut g = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_f64_open_never_zero() {
        let mut g = Pcg32::seed_from_u64(7);
        for _ in 0..100_000 {
            let v = g.next_f64_open();
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut g = Xoshiro256pp::seed_from_u64(5);
        let bound = 10u64;
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            let v = g.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        let expect = n as f64 / bound as f64;
        for &c in &counts {
            assert!((c as f64 - expect).abs() < 5.0 * expect.sqrt(), "count {c} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        Xoshiro256pp::seed_from_u64(1).next_below(0);
    }

    #[test]
    fn trait_objects_work() {
        let mut boxed: Box<dyn RandomSource> = Box::new(Xoshiro256pp::seed_from_u64(3));
        let _ = boxed.next_u64();
        let _ = boxed.next_f64();
    }

    #[test]
    fn fill_f64_fills_everything() {
        let mut g = Xoshiro256pp::seed_from_u64(11);
        let mut buf = vec![-1.0; 1000];
        g.fill_f64(&mut buf);
        assert!(buf.iter().all(|&v| (0.0..1.0).contains(&v)));
    }
}
