//! Property-based tests for the RNG substrate (rrs-check harness).

use rrs_check::any;
use rrs_rng::{BoxMuller, Pcg32, RandomSource, SplitMix64, Xoshiro256pp};

rrs_check::props! {
    #![cases = 128]

    fn uniform_unit_interval_for_all_generators(seed in any::<u64>()) {
        let mut sm = SplitMix64::new(seed);
        let mut xo = Xoshiro256pp::seed_from_u64(seed);
        let mut pcg = Pcg32::seed_from_u64(seed);
        for _ in 0..64 {
            assert!((0.0..1.0).contains(&sm.next_f64()));
            assert!((0.0..1.0).contains(&xo.next_f64()));
            assert!((0.0..1.0).contains(&pcg.next_f64()));
        }
    }

    fn open_interval_excludes_zero(seed in any::<u64>()) {
        let mut g = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..256 {
            let v = g.next_f64_open();
            assert!(v > 0.0 && v < 1.0);
        }
    }

    fn next_below_respects_bound(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut g = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..32 {
            assert!(g.next_below(bound) < bound);
        }
    }

    fn generators_are_deterministic(seed in any::<u64>()) {
        let mut a = Xoshiro256pp::seed_from_u64(seed);
        let mut b = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut p = Pcg32::seed_from_u64(seed);
        let mut q = Pcg32::seed_from_u64(seed);
        for _ in 0..32 {
            assert_eq!(p.next_u32(), q.next_u32());
        }
    }

    fn pcg_advance_matches_stepping(seed in any::<u64>(), n in 0u64..4096) {
        let mut a = Pcg32::seed_from_u64(seed);
        let mut b = a.clone();
        for _ in 0..n {
            a.next_u32();
        }
        b.advance(n);
        assert_eq!(a, b);
    }

    fn jumped_streams_do_not_collide(seed in any::<u64>()) {
        let mut a = Xoshiro256pp::seed_from_u64(seed);
        let mut b = a.clone();
        b.jump();
        let wa: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let wb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_ne!(wa, wb);
    }

    fn gaussian_deviates_are_finite(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut bm = BoxMuller::new();
        for _ in 0..128 {
            let x = bm.sample(&mut rng);
            assert!(x.is_finite());
            // A |z| > 10 draw has probability < 1e-23: treat as a bug.
            assert!(x.abs() < 10.0);
        }
    }
}
