//! Property-based integration tests over the public API (rrs-check).
//!
//! Each property quantifies an invariant the reproduction rests on:
//! transform identities, kernel energy conservation, tiling exactness,
//! and estimator sanity — exercised over randomly drawn shapes, seeds and
//! parameters rather than hand-picked cases.

use rrs::fft::{Direction, Fft};
use rrs::num::Complex64;
use rrs::prelude::*;
use rrs::rng::{RandomSource, Xoshiro256pp};
use rrs_check::{any, from_fn, Gen};

fn arb_signal(max_len: usize) -> impl Gen<Value = Vec<Complex64>> {
    from_fn(move |rng| {
        let n = 1 + (rng.next_below((max_len - 1) as u64) as usize);
        let mut src = Xoshiro256pp::seed_from_u64(rng.next_u64());
        (0..n)
            .map(|_| Complex64::new(src.next_f64() - 0.5, src.next_f64() - 0.5))
            .collect()
    })
}

rrs_check::props! {
    #![cases = 48]

    /// FFT round-trip identity for arbitrary lengths (radix-2 and
    /// Bluestein paths alike).
    fn fft_round_trip(signal in arb_signal(200)) {
        let n = signal.len();
        let fft = Fft::new(n);
        let mut buf = signal.clone();
        fft.process(&mut buf, Direction::Forward);
        fft.process(&mut buf, Direction::Inverse);
        for (a, b) in buf.iter().zip(&signal) {
            assert!((*a - *b).abs() < 1e-9, "length {n}");
        }
    }

    /// Parseval's identity for arbitrary lengths.
    fn fft_parseval(signal in arb_signal(160)) {
        let n = signal.len();
        let mut buf = signal.clone();
        Fft::new(n).process(&mut buf, Direction::Forward);
        let t: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let f: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((t - f).abs() <= 1e-9 * t.max(1.0));
    }

    /// Kernel energy equals the surface variance for random parameters
    /// and spectra (the normalisation chain w → v → w̃ is exact).
    fn kernel_energy_equals_variance(
        h in 0.1f64..4.0,
        cl in 3.0f64..12.0,
        family in 0u8..3,
    ) {
        let p = SurfaceParams::isotropic(h, cl);
        let s = match family {
            0 => SpectrumModel::gaussian(p),
            1 => SpectrumModel::power_law(p, 2.5),
            _ => SpectrumModel::exponential(p),
        };
        let k = ConvolutionKernel::build(
            &s,
            KernelSizing::Auto { factor: 10.0, min: 32, max: 256 },
        );
        let rel = (k.energy() - h * h).abs() / (h * h);
        // The exponential family's K^-3 spectral tail loses the analytic
        // fraction ≈ 1/(π·cl) to Nyquist truncation; the other families
        // decay fast enough to be near-exact.
        let bound = match family {
            2 => 0.02 + 1.5 / (core::f64::consts::PI * cl),
            _ => 0.03,
        };
        assert!(rel < bound, "family {family}: energy {}, h² {}", k.energy(), h * h);
    }

    /// Window tiling of the homogeneous generator is exact for random
    /// window geometry and seeds.
    fn window_tiling_is_exact(
        seed in any::<u64>(),
        x0 in -50i64..50,
        y0 in -50i64..50,
        w in 4usize..40,
        h in 4usize..40,
        sx in 1usize..20,
        sy in 1usize..20,
    ) {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let gen = ConvolutionGenerator::new(
            &s,
            KernelSizing::Auto { factor: 6.0, min: 16, max: 64 },
        )
        .with_context(
            GenContext::new()
                .with_workers(1)
                .with_backend(ConvBackend::Direct),
        );
        let noise = NoiseField::new(seed);
        let sx = sx.min(w - 1);
        let sy = sy.min(h - 1);
        let big = gen.generate(&noise, Window::new(x0, y0, w, h));
        let sub = gen.generate(
            &noise,
            Window::new(x0 + sx as i64, y0 + sy as i64, w - sx, h - sy),
        );
        for iy in 0..h - sy {
            for ix in 0..w - sx {
                assert_eq!(*sub.get(ix, iy), *big.get(ix + sx, iy + sy));
            }
        }
    }

    /// The same tiling on the default backend (the FFT engine for this
    /// kernel) holds within 1e-9 relative: sub-windows plan their own
    /// tiles.
    fn auto_window_tiling_is_within_roundoff(
        seed in any::<u64>(),
        x0 in -50i64..50,
        y0 in -50i64..50,
        w in 4usize..40,
        h in 4usize..40,
        sx in 1usize..20,
        sy in 1usize..20,
    ) {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
        let gen = ConvolutionGenerator::new(
            &s,
            KernelSizing::Auto { factor: 6.0, min: 16, max: 64 },
        )
        .with_context(GenContext::new().with_workers(1));
        let noise = NoiseField::new(seed);
        let sx = sx.min(w - 1);
        let sy = sy.min(h - 1);
        let big = gen.generate(&noise, Window::new(x0, y0, w, h));
        let sub = gen.generate(
            &noise,
            Window::new(x0 + sx as i64, y0 + sy as i64, w - sx, h - sy),
        );
        let scale = big.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
        for iy in 0..h - sy {
            for ix in 0..w - sx {
                assert!((*sub.get(ix, iy) - *big.get(ix + sx, iy + sy)).abs() <= 1e-9 * scale);
            }
        }
    }

    /// Plate-layout weights are a partition of unity everywhere, for
    /// random rectangle geometry.
    fn plate_weights_partition_unity(
        cx in 10.0f64..90.0,
        cy in 10.0f64..90.0,
        r in 5.0f64..40.0,
        t in 1.0f64..30.0,
        px in -20.0f64..120.0,
        py in -20.0f64..120.0,
    ) {
        let layout = PlateLayout::new(
            vec![Plate {
                region: Region::Circle { cx, cy, r },
                spectrum: SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0)),
            }],
            Some(SpectrumModel::gaussian(SurfaceParams::isotropic(2.0, 6.0))),
            t,
        );
        let mut w = Vec::new();
        use rrs::inhomo::WeightMap;
        layout.weights_at(px, py, &mut w);
        let total: f64 = w.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        assert!(w.iter().all(|&(_, v)| v >= 0.0));
    }

    /// Point-layout weights are a partition of unity with the nearest
    /// point dominating, for random point sets.
    fn point_weights_partition_unity(
        seed in any::<u64>(),
        n_points in 2usize..8,
        t in 1.0f64..40.0,
        px in -100.0f64..200.0,
        py in -100.0f64..200.0,
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut pts = Vec::new();
        for i in 0..n_points {
            pts.push(RepresentativePoint {
                // Spread points on a coarse jittered lattice so no two collide.
                x: (i % 4) as f64 * 60.0 + rng.next_f64() * 20.0,
                y: (i / 4) as f64 * 60.0 + rng.next_f64() * 20.0,
                spectrum: SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0)),
            });
        }
        let layout = PointLayout::new(pts, t);
        use rrs::inhomo::WeightMap;
        let mut w = Vec::new();
        layout.weights_at(px, py, &mut w);
        let total: f64 = w.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let nearest = layout.nearest(px, py);
        let wn = w.iter().find(|&&(k, _)| k == nearest).map_or(0.0, |&(_, v)| v);
        assert!(wn >= 0.5 - 1e-9, "nearest weight {wn}");
    }

    /// Snapshot serialisation round-trips arbitrary grids bit-exactly.
    fn snapshot_round_trip(
        nx in 1usize..24,
        ny in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let g = rrs::grid::Grid2::from_fn(nx, ny, |_, _| rng.next_f64() * 2e3 - 1e3);
        let mut buf = Vec::new();
        rrs::io::try_write_snapshot(&mut buf, &g).unwrap();
        let back = rrs::io::try_read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    /// The correlation-length estimator inverts known profiles for random
    /// true lengths and spacings.
    fn correlation_length_estimator_inverts(
        cl in 2.0f64..30.0,
        spacing in 0.25f64..4.0,
        gaussian in any::<bool>(),
    ) {
        let profile: Vec<f64> = (0..200)
            .map(|d| {
                let u = d as f64 * spacing / cl;
                if gaussian { (-u * u).exp() } else { (-u).exp() }
            })
            .collect();
        if let Some(est) = rrs::stats::estimate_correlation_length(&profile, spacing) {
            assert!((est - cl).abs() < 0.1 * cl + spacing, "est {est} vs {cl}");
        } else {
            // Only acceptable when the crossing lies outside the profile.
            assert!(cl / spacing > 190.0, "estimator gave up too early");
        }
    }
}
