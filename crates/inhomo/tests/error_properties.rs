//! Properties of the fallible layout/generator constructors: empty or
//! degenerate layouts, bad transition widths and kernel-count mismatches
//! are rejected with typed errors; the valid domain agrees with the
//! panicking wrappers.

use rrs_check::{from_fn, props, CaseRng};
use rrs_error::ErrorKind;
use rrs_inhomo::{InhomogeneousGenerator, Plate, PlateLayout, PointLayout, Region, RepresentativePoint, WeightMap};
use rrs_spectrum::{GridSpec, SpectrumModel, SurfaceParams};
use rrs_surface::{ConvolutionKernel, GenContext, KernelSizing};

fn sm(h: f64, cl: f64) -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
}

fn bad_width(rng: &mut CaseRng) -> f64 {
    match rng.next_below(5) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        _ => -(rng.next_f64() * 100.0 + f64::MIN_POSITIVE),
    }
}

props! {
    #![cases = 48]

    fn plate_layout_transition_width(t in from_fn(bad_width)) {
        let e = PlateLayout::try_new(vec![], Some(sm(1.0, 4.0)), t).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidParam, "t={t}: {e}");
        assert!(e.to_string().contains("transition width must be positive"), "{e}");
    }

    fn plate_layout_valid_domain(t in 1e-6f64..1e6, n_plates in 0usize..4) {
        let plates: Vec<Plate> = (0..n_plates)
            .map(|i| Plate {
                region: Region::Circle { cx: 100.0 * i as f64, cy: 0.0, r: 10.0 },
                spectrum: sm(1.0 + i as f64, 4.0),
            })
            .collect();
        let l = PlateLayout::try_new(plates.clone(), Some(sm(0.5, 2.0)), t)
            .expect("valid layout accepted");
        assert_eq!(l.kernel_count(), n_plates + 1);
        if n_plates == 0 {
            // No plates and no background is the one empty-layout error.
            let e = PlateLayout::try_new(vec![], None, t).unwrap_err();
            assert!(e.to_string().contains("at least one plate or a background"), "{e}");
        }
    }

    fn point_layout_rejections(t in from_fn(bad_width), x in -1e3f64..1e3, y in -1e3f64..1e3) {
        let e = PointLayout::try_new(vec![], 10.0).unwrap_err();
        assert!(e.to_string().contains("at least one point"), "{e}");

        let p = RepresentativePoint { x, y, spectrum: sm(1.0, 4.0) };
        let e = PointLayout::try_new(vec![p], t).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidParam, "t={t}: {e}");

        let e = PointLayout::try_new(vec![p, p], 10.0).unwrap_err();
        assert!(e.to_string().contains("coincide"), "{e}");

        // The same point set with distinct positions is fine.
        let q = RepresentativePoint { x: x + 1.0, y, spectrum: sm(2.0, 4.0) };
        let l = PointLayout::try_new(vec![p, q], 10.0).unwrap();
        assert_eq!(l.kernel_count(), 2);
    }

    fn kernel_count_must_match(extra in 0usize..3) {
        let layout = PlateLayout::new(vec![], Some(sm(1.0, 4.0)), 1.0);
        let sizing = KernelSizing::Explicit(GridSpec::unit(16, 16));
        let kernels: Vec<ConvolutionKernel> = layout
            .spectra()
            .iter()
            .cycle()
            .take(1 + extra)
            .map(|s| ConvolutionKernel::build(s, sizing))
            .collect();
        match InhomogeneousGenerator::try_from_kernels(layout, kernels) {
            Ok(_) => assert_eq!(extra, 0),
            Err(e) => {
                assert!(extra > 0);
                assert_eq!(e.kind(), ErrorKind::ShapeMismatch, "{e}");
                assert!(e.to_string().contains("kernel count must match"), "{e}");
            }
        }
    }

    fn empty_window_rejected(nx in 0usize..2, ny in 0usize..2, seed in rrs_check::any::<u64>()) {
        let layout = PlateLayout::new(vec![], Some(sm(1.0, 3.0)), 1.0);
        let sizing = KernelSizing::Explicit(GridSpec::unit(16, 16));
        let gen = InhomogeneousGenerator::new(layout, sizing)
            .with_context(GenContext::new().with_workers(1));
        let noise = rrs_surface::NoiseField::new(seed);
        match rrs_grid::Window::try_new(0, 0, nx, ny).and_then(|w| gen.try_generate(&noise, w)) {
            Ok(g) => {
                assert!(nx > 0 && ny > 0);
                assert_eq!(g.shape(), (nx, ny));
            }
            Err(e) => {
                assert!(nx == 0 || ny == 0);
                assert!(e.to_string().contains("non-empty"), "{e}");
            }
        }
    }
}
