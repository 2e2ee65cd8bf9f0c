//! Case scheduling, seed derivation and failure reporting.

use rrs_num::fnv1a;
use rrs_rng::{RandomSource, SplitMix64, Xoshiro256pp};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The per-case random source handed to every generator.
///
/// A thin wrapper over [`Xoshiro256pp`] seeded from the case seed; exposes
/// the raw draws generators need plus a convenience [`draw`](CaseRng::draw)
/// for pulling a value out of any [`Gen`](crate::Gen) mid-property.
pub struct CaseRng {
    inner: Xoshiro256pp,
    seed: u64,
}

impl CaseRng {
    /// Creates a source for the case identified by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { inner: Xoshiro256pp::seed_from_u64(seed), seed }
    }

    /// The seed this case was created from (what failure reports print).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// A uniform integer in `[0, bound)` (unbiased).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.inner.next_below(bound)
    }

    /// Generates a value from `gen` — handy for data-dependent draws
    /// inside a property body.
    pub fn draw<G: crate::Gen>(&mut self, gen: G) -> G::Value {
        gen.generate(self)
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Runs one property over its schedule of seeded cases.
pub struct Runner {
    name: &'static str,
    cases: u64,
}

impl Runner {
    /// Creates a runner for the property `name` with the given default
    /// case count (`RRS_CHECK_CASES` overrides it).
    pub fn new(name: &'static str, cases: u64) -> Self {
        let cases = std::env::var("RRS_CHECK_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &u64| n > 0)
            .unwrap_or(cases);
        Self { name, cases }
    }

    /// Executes the property once per case.
    ///
    /// With `RRS_CHECK_SEED` set, runs exactly one case with that seed.
    /// On a panic inside `f`, prints the failing seed and reproduction
    /// line, then re-raises the panic.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(&mut CaseRng),
    {
        if let Some(seed) = std::env::var("RRS_CHECK_SEED").ok().and_then(|v| parse_seed(&v)) {
            self.run_case(seed, 0, 1, &f);
            return;
        }
        // Per-property seed stream: hashing the fully qualified name keeps
        // sibling properties on unrelated sequences, and SplitMix64 is the
        // workspace's canonical stream deriver.
        let mut stream = SplitMix64::new(fnv1a(self.name.as_bytes()));
        for case in 0..self.cases {
            self.run_case(stream.next_u64(), case, self.cases, &f);
        }
    }

    fn run_case<F>(&self, seed: u64, case: u64, total: u64, f: &F)
    where
        F: Fn(&mut CaseRng),
    {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = CaseRng::new(seed);
            f(&mut rng);
        }));
        if let Err(payload) = result {
            let short = self.name.rsplit("::").next().unwrap_or(self.name);
            eprintln!(
                "[rrs-check] property '{}' failed at case {}/{} (seed {:#018x})",
                self.name,
                case + 1,
                total,
                seed
            );
            eprintln!("[rrs-check] reproduce with: RRS_CHECK_SEED={seed:#x} cargo test {short}");
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_rng_is_deterministic_per_seed() {
        let mut a = CaseRng::new(42);
        let mut b = CaseRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = CaseRng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn runner_visits_every_case() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        Runner { name: "test::visits", cases: 37 }.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn failing_property_panics_with_report() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Runner { name: "test::fails", cases: 8 }.run(|rng| {
                assert!(rng.next_f64() < 0.5, "unlucky draw");
            });
        }));
        assert!(result.is_err(), "a ~1-in-256 surviving schedule would be a seed-derivation bug");
    }

    #[test]
    fn seeds_differ_between_properties() {
        // Identical bodies under different names must see different data.
        let a = std::sync::Mutex::new(Vec::new());
        let b = std::sync::Mutex::new(Vec::new());
        Runner { name: "test::stream_a", cases: 8 }.run(|rng| a.lock().unwrap().push(rng.next_u64()));
        Runner { name: "test::stream_b", cases: 8 }.run(|rng| b.lock().unwrap().push(rng.next_u64()));
        assert_ne!(*a.lock().unwrap(), *b.lock().unwrap());
    }

    #[test]
    fn parse_seed_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("255"), Some(255));
        assert_eq!(parse_seed("0xff"), Some(255));
        assert_eq!(parse_seed("0XFF"), Some(255));
        assert_eq!(parse_seed("zzz"), None);
    }
}
