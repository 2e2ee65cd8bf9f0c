//! Determinism regression tests for the convolution generator.
//!
//! The static-partition contract of `rrs-par` promises that worker count
//! never changes results — only wall-clock time. These tests pin that
//! contract at the surface level: the generated window must be
//! bit-identical across worker counts and across repeated same-seed runs,
//! and adjacent windows must tile seamlessly.

use rrs::prelude::*;

fn spectrum() -> Gaussian {
    Gaussian::new(SurfaceParams::new(1.3, 5.0, 3.0))
}

fn sizing() -> KernelSizing {
    KernelSizing::Auto { factor: 6.0, min: 16, max: 64 }
}

/// Workers = 1 and workers = 8 must produce bit-identical windows: the
/// row partition changes, the arithmetic per output sample must not.
#[test]
fn window_is_bit_identical_across_worker_counts() {
    let s = spectrum();
    let noise = NoiseField::new(0x5EED_CAFE);
    let serial = ConvolutionGenerator::new(&s, sizing())
        .with_workers(1)
        .generate(&noise, Window::new(-17, 23, 96, 64));
    for workers in [2, 3, 8] {
        let parallel = ConvolutionGenerator::new(&s, sizing())
            .with_workers(workers)
            .generate(&noise, Window::new(-17, 23, 96, 64));
        assert_eq!(
            serial.as_slice(),
            parallel.as_slice(),
            "workers={workers} diverged from serial"
        );
    }
}

/// Two runs with the same seed are bit-identical; a different seed is not.
#[test]
fn same_seed_runs_are_bit_identical() {
    let s = spectrum();
    let gen = ConvolutionGenerator::new(&s, sizing()).with_workers(4);
    let a = gen.generate(&NoiseField::new(42), Window::new(0, 0, 64, 64));
    let b = gen.generate(&NoiseField::new(42), Window::new(0, 0, 64, 64));
    assert_eq!(a, b, "same-seed runs must be reproducible");
    let c = gen.generate(&NoiseField::new(43), Window::new(0, 0, 64, 64));
    assert_ne!(a, c, "different seeds must differ");
}

/// A generated window placed at `(x, y)` within a larger one.
type Placed = (usize, usize, Grid2<f64>);

/// The full window and its four quadrants, generated separately.
fn full_and_quadrants(gen: &ConvolutionGenerator) -> (Grid2<f64>, Vec<Placed>) {
    let noise = NoiseField::new(0xD15C);
    let (w, h) = (80usize, 56usize);
    let (x0, y0) = (-9i64, 31i64);
    let full = gen.generate(&noise, Window::new(x0, y0, w, h));
    let (hw, hh) = (w / 2, h / 2);
    let quads = vec![
        (0usize, 0usize, gen.generate(&noise, Window::new(x0, y0, hw, hh))),
        (hw, 0, gen.generate(&noise, Window::new(x0 + hw as i64, y0, w - hw, hh))),
        (0, hh, gen.generate(&noise, Window::new(x0, y0 + hh as i64, hw, h - hh))),
        (
            hw,
            hh,
            gen.generate(&noise, Window::new(x0 + hw as i64, y0 + hh as i64, w - hw, h - hh)),
        ),
    ];
    (full, quads)
}

/// Four quadrant windows reassemble the full window exactly — the
/// streaming/tiled path has no seams (§2.4 of the paper: window values
/// depend only on absolute coordinates, not window geometry).
#[test]
fn quadrant_windows_tile_seamlessly() {
    let s = spectrum();
    let gen = ConvolutionGenerator::new(&s, sizing())
        .with_workers(4)
        .with_backend(ConvBackend::Direct);
    let (full, quads) = full_and_quadrants(&gen);
    for (ox, oy, q) in &quads {
        let (qw, qh) = q.shape();
        for iy in 0..qh {
            for ix in 0..qw {
                assert_eq!(
                    q.get(ix, iy),
                    full.get(ox + ix, oy + iy),
                    "seam at quadrant offset ({ox},{oy}), local ({ix},{iy})"
                );
            }
        }
    }
}

/// The same reassembly on the default backend, which runs this kernel on
/// the FFT engine: each window plans its own tiles, so seams agree within
/// 1e-9 relative rather than to the bit.
#[test]
fn auto_quadrant_windows_tile_within_roundoff() {
    let s = spectrum();
    let gen = ConvolutionGenerator::new(&s, sizing()).with_workers(4);
    assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
    let (full, quads) = full_and_quadrants(&gen);
    let scale = full.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
    for (ox, oy, q) in &quads {
        let (qw, qh) = q.shape();
        for iy in 0..qh {
            for ix in 0..qw {
                let err = (q.get(ix, iy) - full.get(ox + ix, oy + iy)).abs();
                assert!(err <= 1e-9 * scale, "seam at ({ox},{oy}), local ({ix},{iy}): {err:e}");
            }
        }
    }
}
