//! Property-based tests for the 1-D profile pipeline.

use rrs_check::any;
use rrs_spectrum::line::{Exponential1d, Gaussian1d, LineParams};
use rrs_surface::{ConvolutionKernel, LineGenerator};

rrs_check::props! {
    #![cases = 48]

    fn kernel_energy_matches_variance(h in 0.1f64..3.0, cl in 3.0f64..20.0) {
        let gen = LineGenerator::new(&Gaussian1d::new(LineParams::new(h, cl)), 0);
        let k = gen.kernel();
        let rel = (k.energy() - h * h).abs() / (h * h);
        assert!(rel < 1e-6, "energy {}, h² {}", k.energy(), h * h);
    }

    fn exponential_kernel_energy_within_tail(h in 0.1f64..3.0, cl in 3.0f64..20.0) {
        let gen = LineGenerator::new(&Exponential1d::new(LineParams::new(h, cl)), 0);
        let k = gen.kernel();
        // Lorentzian density loses ≈ 2/(π²·cl/dx·...) — bounded by ~1/cl.
        let rel = (k.energy() - h * h).abs() / (h * h);
        assert!(rel < 0.05 + 1.0 / cl, "energy {}, h² {}", k.energy(), h * h);
    }

    fn kernels_are_even(h in 0.1f64..2.0, cl in 3.0f64..15.0) {
        let k = ConvolutionKernel::build_profile(&Gaussian1d::new(LineParams::new(h, cl)), 128);
        let w = k.weights().as_slice();
        let n = w.len();
        for i in 1..n / 2 {
            // Centred layout: w[c+i] == w[c−i] around the centre c = n/2.
            assert!((w[n / 2 + i] - w[n / 2 - i]).abs() < 1e-12, "offset {i}");
        }
    }

    fn windows_tile_for_any_geometry(
        seed in any::<u64>(),
        x0 in -500i64..500,
        len in 2usize..100,
        cut in 1usize..99,
    ) {
        let cut = cut.min(len - 1);
        let gen = LineGenerator::new(&Gaussian1d::new(LineParams::new(1.0, 4.0)), seed);
        let whole = gen.generate(x0, len);
        let left = gen.generate(x0, cut);
        let right = gen.generate(x0 + cut as i64, len - cut);
        for i in 0..cut {
            assert_eq!(whole.heights[i], left.heights[i]);
        }
        for i in 0..len - cut {
            assert_eq!(whole.heights[cut + i], right.heights[i]);
        }
    }

    fn truncation_never_gains_energy(eps in 0.002f64..0.3, cl in 3.0f64..12.0) {
        let k = ConvolutionKernel::build_profile(&Gaussian1d::new(LineParams::new(1.0, cl)), 256);
        let t = k.truncated(eps);
        assert!(t.energy() <= k.energy() + 1e-12);
        let loss = ((k.energy() - t.energy()).max(0.0) / k.energy()).sqrt();
        assert!(loss <= eps * 1.05, "loss {loss} vs {eps}");
    }

    fn different_rows_differ(seed in any::<u64>(), r1 in -10i64..10, r2 in -10i64..10) {
        rrs_check::assume!(r1 != r2);
        let s = Gaussian1d::new(LineParams::new(1.0, 4.0));
        let a = LineGenerator::new(&s, seed).with_row(r1).generate(0, 64);
        let b = LineGenerator::new(&s, seed).with_row(r2).generate(0, 64);
        assert_ne!(a.heights, b.heights);
    }
}
