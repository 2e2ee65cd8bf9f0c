//! Property-based tests for the surface generators.

use rrs_check::any;
use rrs_grid::Window;
use rrs_spectrum::{Gaussian, GridSpec, SurfaceParams};
use rrs_surface::{
    ConvBackend, ConvolutionGenerator, ConvolutionKernel, DirectDftGenerator, GenContext,
    KernelSizing, NoiseField,
};

rrs_check::props! {
    #![cases = 32]

    fn noise_field_is_a_pure_function(seed in any::<u64>(), x in -1000i64..1000, y in -1000i64..1000) {
        let f = NoiseField::new(seed);
        let v = f.at(x, y);
        assert!(v.is_finite());
        assert_eq!(v, NoiseField::new(seed).at(x, y));
    }

    fn noise_windows_always_agree_with_points(
        seed in any::<u64>(),
        x0 in -100i64..100,
        y0 in -100i64..100,
        w in 1usize..16,
        h in 1usize..16,
    ) {
        let f = NoiseField::new(seed);
        let win = f.window(x0, y0, w, h);
        for iy in 0..h {
            for ix in 0..w {
                assert_eq!(win[iy * w + ix], f.at(x0 + ix as i64, y0 + iy as i64));
            }
        }
    }

    fn kernels_are_even_for_any_parameters(h in 0.1f64..3.0, clx in 2.0f64..10.0, cly in 2.0f64..10.0) {
        let s = Gaussian::new(SurfaceParams::new(h, clx, cly));
        let k = ConvolutionKernel::build(&s, KernelSizing::Auto { factor: 6.0, min: 16, max: 96 });
        let (kw, kh) = k.extent();
        for jy in -(kh as i64) / 2 + 1..(kh as i64) / 2 {
            for jx in -(kw as i64) / 2 + 1..(kw as i64) / 2 {
                assert!((k.weight_at(jx, jy) - k.weight_at(-jx, -jy)).abs() < 1e-12);
            }
        }
    }

    fn truncation_never_gains_energy(h in 0.1f64..3.0, cl in 2.0f64..10.0, eps in 0.001f64..0.5) {
        let s = Gaussian::new(SurfaceParams::isotropic(h, cl));
        let k = ConvolutionKernel::build(&s, KernelSizing::Auto { factor: 8.0, min: 16, max: 128 });
        let t = k.truncated(eps);
        assert!(t.energy() <= k.energy() + 1e-12);
        let loss = ((k.energy() - t.energy()).max(0.0) / k.energy()).sqrt();
        assert!(loss <= eps * 1.05, "loss {loss} vs eps {eps}");
        assert!(t.extent().0 <= k.extent().0);
    }

    fn direct_generator_output_is_finite_and_shaped(seed in any::<u64>(), exp in 2u32..6) {
        let n = 1usize << exp;
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 3.0));
        let f = DirectDftGenerator::with_workers(s, GridSpec::unit(n, n), 1).generate(seed);
        assert_eq!(f.shape(), (n, n));
        assert!(f.as_slice().iter().all(|v| v.is_finite()));
    }

    fn convolution_windows_translate_consistently(
        seed in any::<u64>(),
        dx in -32i64..32,
        dy in -32i64..32,
    ) {
        // Generating at a shifted origin equals shifting the noise origin:
        // the surface is a fixed function of absolute coordinates.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 3.0));
        let gen = ConvolutionGenerator::new(
            &s,
            KernelSizing::Auto { factor: 6.0, min: 16, max: 48 },
        )
        .with_context(
            GenContext::new()
                .with_workers(1)
                .with_backend(ConvBackend::Direct),
        );
        let noise = NoiseField::new(seed);
        let a = gen.generate(&noise, Window::new(dx, dy, 8, 8));
        let b = gen.generate(&noise, Window::new(dx, dy, 16, 16));
        for iy in 0..8 {
            for ix in 0..8 {
                assert_eq!(*a.get(ix, iy), *b.get(ix, iy));
            }
        }
    }

    fn auto_windows_translate_consistently_within_roundoff(
        seed in any::<u64>(),
        dx in -32i64..32,
        dy in -32i64..32,
    ) {
        // The same property on the default backend, which sends this
        // kernel to the FFT engine: different window sizes plan different
        // tiles, so the samples agree within roundoff.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 3.0));
        let gen = ConvolutionGenerator::new(
            &s,
            KernelSizing::Auto { factor: 6.0, min: 16, max: 48 },
        )
        .with_context(GenContext::new().with_workers(1));
        assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
        let noise = NoiseField::new(seed);
        let a = gen.generate(&noise, Window::new(dx, dy, 8, 8));
        let b = gen.generate(&noise, Window::new(dx, dy, 16, 16));
        let scale = b.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        for iy in 0..8 {
            for ix in 0..8 {
                assert!((*a.get(ix, iy) - *b.get(ix, iy)).abs() <= 1e-9 * scale);
            }
        }
    }

    fn variance_tracks_h_squared(h in 0.2f64..3.0, seed in any::<u64>()) {
        let s = Gaussian::new(SurfaceParams::isotropic(h, 4.0));
        let gen = ConvolutionGenerator::new(
            &s,
            KernelSizing::Auto { factor: 8.0, min: 16, max: 64 },
        );
        let f = gen.generate(&NoiseField::new(seed), Window::sized(128, 128));
        let raw = f.as_slice().iter().map(|v| v * v).sum::<f64>() / f.len() as f64;
        // 32² patches ⇒ ~4.4% relative sigma on the variance; 6 sigma guard.
        assert!((raw - h * h).abs() < 0.3 * h * h, "raw var {raw} vs h² {}", h * h);
    }
}
