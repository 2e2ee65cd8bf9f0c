//! Properties of the fallible generator entry points: invalid windows,
//! truncation budgets and stream heights are rejected with typed errors;
//! the valid domain matches the panicking wrappers bit-for-bit.

use rrs_check::{from_fn, props, CaseRng};
use rrs_error::ErrorKind;
use rrs_grid::Window;
use rrs_spectrum::{Gaussian, GridSpec, SurfaceParams};
use rrs_obs::Recorder;
use rrs_surface::{
    ConvolutionGenerator, ConvolutionKernel, GenContext, KernelSizing, NoiseField, StripGenerator,
};

fn small_kernel(cl: f64) -> ConvolutionKernel {
    ConvolutionKernel::build(
        &Gaussian::new(SurfaceParams::isotropic(1.0, cl)),
        KernelSizing::Explicit(GridSpec::unit(16, 16)),
    )
}

props! {
    #![cases = 48]

    fn empty_windows_rejected(nx in 0usize..3, ny in 0usize..3, seed in rrs_check::any::<u64>()) {
        let gen = ConvolutionGenerator::from_kernel(small_kernel(2.0))
            .with_context(GenContext::new().with_workers(1));
        let noise = NoiseField::new(seed);
        match Window::try_new(0, 0, nx, ny).and_then(|w| gen.try_generate(&noise, w)) {
            Ok(g) => {
                assert!(nx > 0 && ny > 0);
                assert_eq!(g.shape(), (nx, ny));
                assert_eq!(g, gen.generate(&noise, Window::new(0, 0, nx, ny)));
            }
            Err(e) => {
                assert!(nx == 0 || ny == 0);
                assert_eq!(e.kind(), ErrorKind::InvalidParam, "{e}");
                assert!(e.to_string().contains("non-empty"), "{e}");
            }
        }
    }

    fn bad_epsilon_rejected(eps in from_fn(|rng: &mut CaseRng| {
        match rng.next_below(6) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => 1.0,
            _ => 1.0 + rng.next_f64() * 10.0,
        }
    })) {
        let e = small_kernel(3.0).try_truncated(eps, &Recorder::disabled()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidParam, "eps={eps}: {e}");
        assert!(e.to_string().contains("epsilon"), "{e}");
    }

    fn good_epsilon_accepted(eps in 1e-6f64..0.999) {
        let k = small_kernel(3.0);
        let t = k.try_truncated(eps, &Recorder::disabled()).expect("valid epsilon accepted");
        assert_eq!(t, k.truncated(eps));
    }

    fn stream_height_boundary(ny in 0usize..6, seed in rrs_check::any::<u64>()) {
        let gen = ConvolutionGenerator::from_kernel(small_kernel(2.0))
            .with_context(GenContext::new().with_workers(1));
        match StripGenerator::try_from_generator(gen, ny, seed) {
            Ok(sg) => {
                assert!(ny > 0);
                assert_eq!(sg.height(), ny);
                assert_eq!(sg.seed(), seed);
                assert_eq!(sg.cursor(), 0);
            }
            Err(e) => {
                assert_eq!(ny, 0);
                assert!(e.to_string().contains("strip height must be positive"), "{e}");
            }
        }
    }
}
