//! Cross-crate integration: the inhomogeneous generator end to end.

use rrs::prelude::*;
use rrs::spectrum::Spectrum;

fn sm(h: f64, cl: f64) -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
}

fn sizing() -> KernelSizing {
    KernelSizing::Auto { factor: 8.0, min: 16, max: 160 }
}

/// A two-point point-oriented layout and a half-plane plate layout with
/// the same two spectra must agree statistically deep inside the pure
/// zones (they differ only in how they describe the same geometry).
#[test]
fn plate_and_point_methods_agree_in_pure_zones() {
    let left = sm(0.6, 5.0);
    let right = sm(1.8, 8.0);
    let t = 12.0;

    let plate_layout = PlateLayout::new(
        vec![Plate { region: Region::HalfPlane { a: 1.0, b: 0.0, c: 64.0 }, spectrum: left }],
        Some(right),
        t,
    );
    let point_layout = PointLayout::new(
        vec![
            RepresentativePoint { x: 0.0, y: 64.0, spectrum: left },
            RepresentativePoint { x: 128.0, y: 64.0, spectrum: right },
        ],
        t / 2.0,
    );
    let noise = NoiseField::new(21);
    let plates = InhomogeneousGenerator::new(plate_layout, sizing())
        .with_context(GenContext::new().with_workers(2));
    let points = InhomogeneousGenerator::new(point_layout, sizing())
        .with_context(GenContext::new().with_workers(2));
    let fa = plates.generate(&noise, Window::new(0, 0, 128, 128));
    let fb = points.generate(&noise, Window::new(0, 0, 128, 128));

    // Same noise, same kernels, same pure-zone weights ⇒ identical
    // samples away from the (differently parameterised) transitions.
    let mut max_err: f64 = 0.0;
    for iy in 0..128usize {
        for ix in 0..36usize {
            max_err = max_err.max((fa.get(ix, iy) - fb.get(ix, iy)).abs());
            max_err = max_err.max((fa.get(127 - ix, iy) - fb.get(127 - ix, iy)).abs());
        }
    }
    assert!(max_err < 1e-12, "pure zones differ by {max_err}");
}

/// Transition width actually controls the blend extent: with a wide strip
/// the variance profile across the boundary is gradual; with a narrow one
/// it is sharp.
#[test]
fn transition_width_controls_blend_extent() {
    let profile_of = |t: f64| -> Vec<f64> {
        let layout = PlateLayout::new(
            vec![Plate {
                region: Region::HalfPlane { a: 1.0, b: 0.0, c: 96.0 },
                spectrum: sm(0.3, 4.0),
            }],
            Some(sm(2.0, 4.0)),
            t,
        );
        let gen = InhomogeneousGenerator::new(layout, sizing())
            .with_context(GenContext::new().with_workers(2));
        // Ensemble of 6 seeds for a stable variance profile.
        let mut acc = [0.0f64; 24];
        for seed in 0..6u64 {
            let f = gen.generate(&NoiseField::new(seed), Window::new(0, 0, 192, 96));
            for (bi, a) in acc.iter_mut().enumerate() {
                let col = f.window(bi * 8, 0, 8, 96);
                *a += col.as_slice().iter().map(|v| v * v).sum::<f64>() / col.len() as f64;
            }
        }
        acc.iter().map(|v| (v / 6.0).sqrt()).collect()
    };
    let narrow = profile_of(4.0);
    let wide = profile_of(64.0);
    // Between x=88 and x=104 the narrow profile must complete most of its
    // rise; the wide one must still be mid-transition.
    let rise = |p: &[f64], x: usize| (p[x / 8] - p[0]) / (p[23] - p[0]);
    assert!(rise(&narrow, 112) > 0.8, "narrow rise {}", rise(&narrow, 112));
    assert!(rise(&wide, 112) < 0.8, "wide rise {}", rise(&wide, 112));
}

/// Inhomogeneous windows tile seamlessly — the streaming property carries
/// over from the homogeneous generator.
#[test]
fn inhomogeneous_windows_tile_seamlessly() {
    let gen = pond_generator(ConvBackend::Direct);
    let noise = NoiseField::new(4);
    let whole = gen.generate(&noise, Window::new(0, 0, 100, 100));
    for &(x0, y0, w, h) in &[(0i64, 0i64, 50usize, 50usize), (50, 0, 50, 50), (25, 60, 60, 40)] {
        let part = gen.generate(&noise, Window::new(x0, y0, w, h));
        for iy in 0..h {
            for ix in 0..w {
                assert_eq!(
                    *part.get(ix, iy),
                    *whole.get(ix + x0 as usize, iy + y0 as usize),
                    "seam at ({ix},{iy}) of window ({x0},{y0},{w},{h})"
                );
            }
        }
    }
}

/// The same seams on the default backend: the kernel-major blend plans
/// each window's kernel boxes and FFT tiles separately, so the windows
/// agree within 1e-9 relative rather than to the bit.
#[test]
fn auto_inhomogeneous_windows_tile_within_roundoff() {
    let gen = pond_generator(ConvBackend::Auto);
    assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
    let noise = NoiseField::new(4);
    let whole = gen.generate(&noise, Window::new(0, 0, 100, 100));
    let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
    for &(x0, y0, w, h) in &[(0i64, 0i64, 50usize, 50usize), (50, 0, 50, 50), (25, 60, 60, 40)] {
        let part = gen.generate(&noise, Window::new(x0, y0, w, h));
        for iy in 0..h {
            for ix in 0..w {
                let want = *whole.get(ix + x0 as usize, iy + y0 as usize);
                let err = (*part.get(ix, iy) - want).abs();
                assert!(err <= 1e-9 * scale, "seam at ({ix},{iy}) of ({x0},{y0},{w},{h}): {err:e}");
            }
        }
    }
}

/// An exponential pond in a Gaussian field, on the given backend.
fn pond_generator(backend: ConvBackend) -> InhomogeneousGenerator<PlateLayout> {
    let pond = Plate {
        region: Region::Circle { cx: 50.0, cy: 50.0, r: 30.0 },
        spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.2, 5.0)),
    };
    let layout = PlateLayout::new(vec![pond], Some(sm(1.0, 5.0)), 8.0);
    InhomogeneousGenerator::new(layout, sizing())
        .with_context(GenContext::new().with_workers(3).with_backend(backend))
}

/// Heights of an inhomogeneous surface stay Gaussian in every pure
/// region (the generator is linear in Gaussian noise everywhere).
#[test]
fn inhomogeneous_regions_remain_gaussian() {
    let layout = PlateLayout::new(
        vec![Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 96.0 },
            spectrum: sm(0.5, 4.0),
        }],
        Some(sm(2.0, 6.0)),
        10.0,
    );
    let gen = InhomogeneousGenerator::new(layout, sizing())
        .with_context(GenContext::new().with_workers(2));
    // Generate a wide surface and pool decorrelated samples: the JB and
    // KS tests assume i.i.d. input, so subsample at ≥ 2·cl stride and
    // pool several seeds.
    for (x0, w, target_h, cl) in [(0usize, 80usize, 0.5f64, 4.0f64), (112, 80, 2.0, 6.0)] {
        let stride = (2.0 * cl).ceil() as usize;
        let mut samples = Vec::new();
        for seed in 0..8u64 {
            let f = gen.generate(&NoiseField::new(seed), Window::sized(192, 192));
            let win = f.window(x0, 0, w, 192);
            for iy in (0..192).step_by(stride) {
                for ix in (0..w).step_by(stride) {
                    samples.push(*win.get(ix, iy));
                }
            }
        }
        let r = rrs::stats::normality::jarque_bera_test(&samples);
        assert!(r.passes(0.001), "JB fails in region at x0={x0}: p = {}", r.p_value);
        let ks = rrs::stats::normality::ks_test_normal(&samples, 0.0, target_h);
        assert!(ks.passes(0.001), "KS fails in region at x0={x0}: p = {}", ks.p_value);
        let measured =
            (samples.iter().map(|v| v * v).sum::<f64>() / samples.len() as f64).sqrt();
        assert!(
            (measured - target_h).abs() < 0.3 * target_h,
            "region at {x0}: h_hat {measured} vs {target_h}"
        );
    }
}

/// Kernel truncation is a controlled approximation: statistics survive
/// aggressive truncation within the documented energy bound.
#[test]
fn truncated_inhomogeneous_generation_stays_faithful() {
    let layout = PlateLayout::new(vec![], Some(sm(1.0, 6.0)), 4.0);
    let exact = InhomogeneousGenerator::new(layout.clone(), sizing())
        .with_context(GenContext::new().with_workers(1));
    let trunc = InhomogeneousGenerator::new_truncated(layout, sizing(), 0.05)
        .with_context(GenContext::new().with_workers(1));
    assert!(trunc.kernels()[0].extent().0 < exact.kernels()[0].extent().0);
    let noise = NoiseField::new(6);
    let fe = exact.generate(&noise, Window::new(0, 0, 160, 160));
    let ft = trunc.generate(&noise, Window::new(0, 0, 160, 160));
    // Pointwise difference bounded by the truncated tail's contribution.
    let rms_diff = (fe
        .as_slice()
        .iter()
        .zip(ft.as_slice())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / fe.len() as f64)
        .sqrt();
    assert!(rms_diff < 0.08, "rms diff {rms_diff}");
    assert!((ft.std_dev() - 1.0).abs() < 0.15);
}

/// The weight maps plug into validation: every figure-style region
/// report carries the right expected 1/e crossing for its family.
#[test]
fn expected_crossings_respect_spectrum_family() {
    let g = sm(1.0, 10.0);
    let e = SpectrumModel::exponential(SurfaceParams::isotropic(1.0, 10.0));
    let p3 = SpectrumModel::power_law(SurfaceParams::isotropic(1.0, 10.0), 3.0);
    let cross = |m: &SpectrumModel| rrs::stats::validate::expected_inv_e_crossing(m, true);
    assert!((cross(&g) - 10.0).abs() < 1e-6, "gaussian crossing {}", cross(&g));
    assert!((cross(&e) - 10.0).abs() < 1e-6, "exponential crossing {}", cross(&e));
    let c3 = cross(&p3);
    assert!(c3 > 20.0 && c3 < 30.0, "power-law N=3 crossing {c3}");
    // Sanity: the model correlation really is 1/e there.
    assert!((p3.correlation(c3, 0.0) - (-1.0f64).exp()).abs() < 1e-9);
}
