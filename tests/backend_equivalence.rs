//! Backend equivalence and bit-identity regression suite.
//!
//! Three contracts pin the convolution backends:
//!
//! * `ConvBackend::FftOverlapSave` (the parallel real-input pipeline)
//!   computes the *same sum* as `ConvBackend::Direct` in the frequency
//!   domain — equal within 1e-9 relative error across spectrum families,
//!   anisotropic correlation lengths, truncated and full kernels,
//!   worker counts, and strip-tile seams — and the real-input engine is
//!   bit-identical across worker counts and to the scalar tile
//!   transforms it replaced (FNV-1a hashes of figures, strips and served
//!   windows recorded from them);
//! * `ConvBackend::Direct` is the reference: its output is bit-identical
//!   to the seed release (FNV-1a hashes of the f64 bit patterns captured
//!   from the pre-backend build), so every regression seed and
//!   resume/budget guarantee survives the backend refactor and the
//!   vectorised inner-loop restructure;
//! * the inhomogeneous generator's kernel-major blend (`Auto`, the
//!   default, and `FftOverlapSave`) equals its per-sample `Direct` loop
//!   within 1e-9 relative error on plate and point layouts, every
//!   spectrum family and every kind of window, is bit-identical across
//!   worker counts, degrades to the `Direct` loop bit for bit, and honours
//!   cancellation and admission control.

use rrs::inhomo::plate::quadrant_layout;
use rrs::inhomo::WeightMap;
use rrs::prelude::*;
use rrs_check::{from_fn, Gen};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = bits.flat_map(u64::to_le_bytes).collect();
    rrs::num::fnv1a(&bytes)
}

fn hash_grid(g: &Grid2<f64>) -> u64 {
    fnv1a(g.as_slice().iter().map(|v| v.to_bits()))
}

/// Asserts two grids agree within `tol` relative to the reference's
/// largest magnitude.
fn assert_close(reference: &Grid2<f64>, other: &Grid2<f64>, tol: f64, what: &str) {
    assert_eq!(reference.shape(), other.shape(), "{what}: shape");
    let scale = reference
        .as_slice()
        .iter()
        .map(|v| v.abs())
        .fold(0.0, f64::max)
        .max(1e-30);
    let max_rel = reference
        .as_slice()
        .iter()
        .zip(other.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
        / scale;
    assert!(max_rel <= tol, "{what}: max relative error {max_rel:e} > {tol:e}");
}

// --- Bit-identity: Direct output is unchanged from the seed release. ---

/// The three seed-release windows, generated under `backend`.
fn seed_windows(backend: ConvBackend) -> [Grid2<f64>; 3] {
    let s1 = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    let g1 = ConvolutionGenerator::new(&s1, KernelSizing::default())
        .with_context(GenContext::new().with_workers(1).with_backend(backend))
        .generate(&NoiseField::new(5), Window::sized(32, 16));
    let s2 = Gaussian::new(SurfaceParams::new(1.3, 6.0, 4.0));
    let k2 = ConvolutionKernel::build(&s2, KernelSizing::default()).truncated(1e-3);
    let g2 = ConvolutionGenerator::from_kernel(k2)
        .with_context(GenContext::new().with_workers(3).with_backend(backend))
        .generate(&NoiseField::new(41), Window::new(-7, 3, 40, 28));
    let s3 = Exponential::new(SurfaceParams::new(0.8, 3.0, 7.0));
    let k3 = ConvolutionKernel::build(&s3, KernelSizing::default()).truncated(1e-2);
    let g3 = ConvolutionGenerator::from_kernel(k3)
        .with_context(GenContext::new().with_workers(2).with_backend(backend))
        .generate(&NoiseField::new(99), Window::new(11, -5, 33, 21));
    [g1, g2, g3]
}

#[test]
fn direct_backend_is_bit_identical_to_seed() {
    // Hashes captured from the pre-backend build (commit d2106fd).
    let [g1, g2, g3] = seed_windows(ConvBackend::Direct);
    assert_eq!(hash_grid(&g1), 0xd4354263c73d2f76, "full kernel, serial");
    assert_eq!(hash_grid(&g2), 0x05f15a8657760fab, "truncated aniso kernel, workers=3");
    assert_eq!(hash_grid(&g3), 0x3128fd4cedb5fa8d, "exponential, offset window");
}

#[test]
fn default_backend_matches_the_seed_windows_within_1e9() {
    // The default is Auto, which sends these kernels to the FFT engine:
    // the seed windows come back within roundoff, not to the bit.
    assert_eq!(GenContext::new().backend(), ConvBackend::Auto);
    let direct = seed_windows(ConvBackend::Direct);
    let auto = seed_windows(ConvBackend::default());
    for (i, (d, a)) in direct.iter().zip(&auto).enumerate() {
        assert_close(d, a, 1e-9, &format!("seed window {i}"));
    }
}

#[test]
fn strip_stream_is_bit_identical_to_seed() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
    let mut sg = StripGenerator::new(&s, KernelSizing::default(), 24, 7)
        .with_context(GenContext::new().with_backend(ConvBackend::Direct));
    assert_eq!(hash_grid(&sg.next_strip(16)), 0x0e02845b448152b8, "strip 0");
    assert_eq!(hash_grid(&sg.next_strip(16)), 0x0eb0089b6b1be169, "strip 1");
}

#[test]
fn default_strip_stream_matches_the_seed_strips_within_1e9() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
    let mut direct = StripGenerator::new(&s, KernelSizing::default(), 24, 7)
        .with_context(GenContext::new().with_backend(ConvBackend::Direct));
    let mut auto = StripGenerator::new(&s, KernelSizing::default(), 24, 7);
    for strip in 0..2 {
        assert_close(&direct.next_strip(16), &auto.next_strip(16), 1e-9, &format!("strip {strip}"));
    }
}

// --- Deterministic FFT/Direct agreement cases. ---

fn generators(
    kernel: ConvolutionKernel,
) -> (ConvolutionGenerator, ConvolutionGenerator) {
    let direct = ConvolutionGenerator::from_kernel(kernel.clone())
        .with_context(
            GenContext::new()
                .with_workers(2)
                .with_backend(ConvBackend::Direct),
        );
    let fft = ConvolutionGenerator::from_kernel(kernel)
        .with_context(
            GenContext::new()
                .with_workers(2)
                .with_backend(ConvBackend::FftOverlapSave),
        );
    (direct, fft)
}

#[test]
fn fft_matches_direct_full_kernel() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.2, 6.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default());
    let (direct, fft) = generators(k);
    let noise = NoiseField::new(314);
    let win = Window::new(-9, 14, 80, 52);
    assert_close(
        &direct.generate(&noise, win),
        &fft.generate(&noise, win),
        1e-9,
        "full kernel",
    );
}

#[test]
fn fft_strip_seams_match_direct_whole_surface() {
    // Strips generated tile-by-tile under the FFT backend must agree with
    // one Direct whole-window generation — seams included.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 7.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let seed = 2718;
    let mut sg = StripGenerator::from_generator(
        ConvolutionGenerator::from_kernel(k.clone()).with_backend(ConvBackend::FftOverlapSave),
        40,
        seed,
    );
    let a = sg.next_strip(24);
    let b = sg.next_strip(24);
    let whole = ConvolutionGenerator::from_kernel(k)
        .with_backend(ConvBackend::Direct)
        .generate(&NoiseField::new(seed), Window::sized(48, 40));
    let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
    for iy in 0..40 {
        for ix in 0..24 {
            let ea = (*whole.get(ix, iy) - *a.get(ix, iy)).abs();
            let eb = (*whole.get(ix + 24, iy) - *b.get(ix, iy)).abs();
            assert!(ea <= 1e-9 * scale, "strip A ({ix},{iy}): {ea}");
            assert!(eb <= 1e-9 * scale, "strip B ({ix},{iy}): {eb}");
        }
    }
}

/// Width-1 kernels, whose overlap-save tiles are one sample wide (the real
/// transform's degenerate single-bin rows): a `crop(0, 3)` column and
/// two even-height ones.
fn width_one_kernels() -> [ConvolutionKernel; 3] {
    let s = Gaussian::new(SurfaceParams::new(1.1, 3.0, 5.0));
    let column = ConvolutionKernel::build(&s, KernelSizing::default()).crop(0, 3);
    let pair = ConvolutionKernel::from_parts(Grid2::from_vec(1, 2, vec![0.8, -0.3]), 0, -1);
    let four = Grid2::from_vec(1, 4, vec![0.2, 0.9, -0.4, 0.1]);
    [column, pair, ConvolutionKernel::from_parts(four, 0, -2)]
}

#[test]
fn width_one_kernels_match_direct_on_the_fft_engine() {
    use rrs::obs::stage;
    let noise = NoiseField::new(61);
    let win = Window::new(-5, 7, 23, 41);
    for kernel in width_one_kernels() {
        let shape = kernel.extent();
        assert_eq!(shape.0, 1);
        let direct = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_backend(ConvBackend::Direct)
            .generate(&noise, win);
        for workers in [1, 2] {
            let rec = Recorder::enabled();
            let got = ConvolutionGenerator::from_kernel(kernel.clone())
                .with_context(
                    GenContext::new()
                        .with_workers(workers)
                        .with_backend(ConvBackend::FftOverlapSave)
                        .with_recorder(rec.clone()),
                )
                .try_generate(&noise, win)
                .unwrap();
            let what = format!("{shape:?} kernel, {workers} workers");
            assert_close(&direct, &got, 1e-9, &what);
            // Served by the engine itself, not by the fallback rung.
            let report = rec.report();
            assert!(report.counter(stage::CONV_FFT_TILES) > 0, "{what}");
            assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 0, "{what}");
        }
    }
}

#[test]
fn width_one_kernels_blend_like_the_direct_loop() {
    use rrs::obs::stage;
    // Two plates split at x = 8 with a 6-wide band; the window straddles
    // it, so both width-1 kernels contribute FFT tiles to the blend.
    let [column, pair, four] = width_one_kernels();
    let left = Plate {
        region: Region::HalfPlane { a: 1.0, b: 0.0, c: 8.0 },
        spectrum: SpectrumModel::gaussian(SurfaceParams::isotropic(0.7, 3.0)),
    };
    let field = SpectrumModel::gaussian(SurfaceParams::isotropic(1.3, 5.0));
    let layout = PlateLayout::new(vec![left], Some(field), 6.0);
    let noise = NoiseField::new(67);
    let win = Window::new(-12, -3, 40, 30);
    for kernels in [vec![column.clone(), four], vec![pair, column]] {
        let make = |backend| {
            InhomogeneousGenerator::from_kernels(layout.clone(), kernels.clone())
                .with_context(GenContext::new().with_workers(2).with_backend(backend))
        };
        let direct = make(ConvBackend::Direct).generate(&noise, win);
        let rec = Recorder::enabled();
        let gen = make(ConvBackend::FftOverlapSave);
        let ctx = gen.context().clone().with_recorder(rec.clone());
        let got = gen.with_context(ctx).try_generate(&noise, win).unwrap();
        let shapes: Vec<_> = kernels.iter().map(|k| k.extent()).collect();
        assert_close(&direct, &got, 1e-9, &format!("blend of {shapes:?}"));
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 0, "{shapes:?}");
        assert!(report.counter(stage::CONV_FFT_TILES) >= 2, "{shapes:?}");
    }
}

#[test]
fn auto_dispatches_by_kernel_area_and_counts() {
    use rrs::obs::stage;
    // Large kernel: Auto must resolve to the FFT engine and tick its
    // dispatch counter.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 16.0));
    let rec = Recorder::enabled();
    let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_context(
            GenContext::new()
                .with_backend(ConvBackend::Auto)
                .with_recorder(rec.clone()),
        );
    assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
    gen.generate(&NoiseField::new(1), Window::sized(48, 48));
    let report = rec.report();
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1);
    assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 0);
    assert!(report.counter(stage::CONV_FFT_TILES) >= 1);
    assert_eq!(report.counter(stage::CORRELATE_SAMPLES), 48 * 48);

    // Tiny kernel: Auto stays on the direct path.
    let tiny = ConvolutionKernel::build(&s, KernelSizing::default()).crop(3, 3);
    let rec2 = Recorder::enabled();
    let gen2 = ConvolutionGenerator::from_kernel(tiny)
        .with_context(
            GenContext::new()
                .with_backend(ConvBackend::Auto)
                .with_recorder(rec2.clone()),
        );
    assert_eq!(gen2.resolved_backend(), ConvBackend::Direct);
    gen2.generate(&NoiseField::new(1), Window::sized(16, 16));
    assert_eq!(rec2.report().counter(stage::CONV_BACKEND_DIRECT), 1);
    assert_eq!(rec2.report().counter(stage::CONV_BACKEND_FFT), 0);
}

#[test]
fn correlate_window_api_matches_generate() {
    // The public prefetched-window entry point (what benches time) must
    // agree with the end-to-end path on both backends.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(77);
    let win = Window::new(5, -3, 36, 28);
    for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave] {
        let gen = ConvolutionGenerator::from_kernel(k.clone()).with_backend(backend);
        let (kw, kh) = gen.kernel().extent();
        let (ox, oy) = gen.kernel().origin();
        let prefetched = noise.window(
            win.x0 - (ox + kw as i64 - 1),
            win.y0 - (oy + kh as i64 - 1),
            win.nx + kw - 1,
            win.ny + kh - 1,
        );
        let via_window = gen.try_correlate_window(&prefetched, win.nx, win.ny).unwrap();
        assert_eq!(via_window, gen.generate(&noise, win), "backend {backend:?}");
    }
    // Geometry is validated, not trusted.
    let gen = ConvolutionGenerator::from_kernel(k);
    let err = gen.try_correlate_window(&[0.0; 10], 36, 28).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::ShapeMismatch);
    let err = gen.try_correlate_window(&[], 0, 4).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidParam);
}

// --- Real-input engine: ≡ Direct, across worker counts. ---

#[test]
fn real_fft_matches_direct_across_worker_counts() {
    // Two engines, one sum: the parallel real-input pipeline
    // (FftOverlapSave) and the Direct reference must agree within 1e-9
    // for every worker count — including whatever the host actually
    // has — on an anisotropic truncated kernel with an offset window.
    let s = Gaussian::new(SurfaceParams::new(1.1, 9.0, 4.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-4);
    let noise = NoiseField::new(271828);
    let win = Window::new(-13, 7, 96, 60);
    let direct = ConvolutionGenerator::from_kernel(k.clone())
        .with_backend(ConvBackend::Direct)
        .generate(&noise, win);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [1, 2, host] {
        let rfft = ConvolutionGenerator::from_kernel(k.clone())
            .with_context(
                GenContext::new()
                    .with_workers(workers)
                    .with_backend(ConvBackend::FftOverlapSave),
            )
            .generate(&noise, win);
        assert_close(&direct, &rfft, 1e-9, &format!("rfft vs direct, workers={workers}"));
    }
}

#[test]
fn real_fft_is_bit_identical_across_worker_counts() {
    // The parallel branch changes who computes each tile, never the
    // arithmetic inside it: outputs are equal to the bit, not just 1e-9.
    let s = Exponential::new(SurfaceParams::new(0.9, 5.0, 8.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(1618);
    let win = Window::new(3, -9, 180, 120);
    let reference = ConvolutionGenerator::from_kernel(k.clone())
        .with_context(
            GenContext::new()
                .with_workers(1)
                .with_backend(ConvBackend::FftOverlapSave),
        )
        .generate(&noise, win);
    for workers in [2, 3, 7] {
        let g = ConvolutionGenerator::from_kernel(k.clone())
            .with_context(
                GenContext::new()
                    .with_workers(workers)
                    .with_backend(ConvBackend::FftOverlapSave),
            )
            .generate(&noise, win);
        assert_eq!(hash_grid(&reference), hash_grid(&g), "workers={workers}");
        assert_eq!(reference, g, "workers={workers}");
    }
}

#[test]
fn parallel_real_fft_strips_tile_seamlessly() {
    // Strip-seam contract on the parallel real-input engine specifically:
    // tiles dispatched across workers must reproduce the Direct
    // whole-surface values at every seam.
    let s = Gaussian::new(SurfaceParams::new(1.0, 6.0, 9.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let seed = 31415;
    let mut sg = StripGenerator::from_generator(
        ConvolutionGenerator::from_kernel(k.clone())
            .with_context(
                GenContext::new()
                    .with_workers(3)
                    .with_backend(ConvBackend::FftOverlapSave),
            ),
        36,
        seed,
    );
    let a = sg.next_strip(40);
    let b = sg.next_strip(40);
    let whole = ConvolutionGenerator::from_kernel(k)
        .with_backend(ConvBackend::Direct)
        .generate(&NoiseField::new(seed), Window::sized(80, 36));
    let scale = whole.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max);
    for iy in 0..36 {
        for ix in 0..40 {
            let ea = (*whole.get(ix, iy) - *a.get(ix, iy)).abs();
            let eb = (*whole.get(ix + 40, iy) - *b.get(ix, iy)).abs();
            assert!(ea <= 1e-9 * scale, "strip A ({ix},{iy}): {ea}");
            assert!(eb <= 1e-9 * scale, "strip B ({ix},{iy}): {eb}");
        }
    }
}

// --- FFT-path bit identity: hashes recorded before the batched tile transforms. ---
//
// The real-input engine's tiles run the batched split-complex transforms,
// which must give every element exactly the arithmetic of the scalar
// radix-2 `FftPlan::process` they replaced. These FNV-1a hashes were
// recorded from the scalar engine; they are never regenerated.

/// The four paper figures at scale 1/8 on the default backend (`Auto`,
/// the kernel-major blend on the real-input engine).
const FIGURE_HASHES: [u64; 4] =
    [0x695b84bb54215979, 0xb7eb56a4283b5494, 0x2bc99fd2345ffb50, 0xbec18796d41d1cc7];

/// Three consecutive 512×256 strips of the `strip` benchmark's stream.
const STRIP_HASHES: [u64; 3] = [0xfd80399d73fba23e, 0x9e9c8bfb0042c444, 0x02430c6a04ee45e4];

/// `FftOverlapSave` windows at the serving benchmark's sizing: Gaussian,
/// power-law and exponential keys, then a width-1 `crop(0, 3)` kernel.
const SERVE_HASHES: [u64; 4] =
    [0x5faabe09740fe925, 0xc1ceae6fdb022fb8, 0x28d19aeedbce07c1, 0xd4d910892938e6c5];

#[test]
fn paper_figures_keep_their_fft_path_hashes_at_every_worker_count() {
    use rrs_bench::figures::all_figures;
    for workers in [1, 2] {
        let got: Vec<u64> = all_figures(0.125, 0.01, 3)
            .into_iter()
            .map(|fig| {
                let ctx = fig.generator.context().clone().with_workers(workers);
                let gen = fig.generator.with_context(ctx);
                assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave, "{}", fig.id);
                hash_grid(&gen.generate(
                    &NoiseField::new(fig.seed),
                    Window::new(fig.origin.0, fig.origin.1, fig.nx, fig.ny),
                ))
            })
            .collect();
        assert_eq!(got, FIGURE_HASHES, "figures at {workers} workers");
    }
}

/// The `strip` benchmark's stream: a 256² Gaussian (h = 1, cl = 32)
/// kernel on `FftOverlapSave`, 256 rows high.
fn strip_benchmark_stream(seed: u64) -> StripGenerator {
    let spectrum = SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 32.0));
    let sizing = KernelSizing::Auto { factor: 8.0, min: 16, max: 256 };
    let gen =
        ConvolutionGenerator::new(&spectrum, sizing).with_backend(ConvBackend::FftOverlapSave);
    assert_eq!(gen.kernel().extent(), (256, 256));
    StripGenerator::from_generator(gen, 256, seed)
}

#[test]
fn strip_benchmark_stream_keeps_its_fft_path_hashes() {
    use rrs::obs::stage;
    let rec = Recorder::enabled();
    let sg = strip_benchmark_stream(1);
    let ctx = sg.context().clone().with_recorder(rec.clone());
    let mut sg = sg.with_context(ctx);
    sg.seek(-777);
    let got: Vec<u64> = (0..3).map(|_| hash_grid(&sg.next_strip(512))).collect();
    assert_eq!(got, STRIP_HASHES);
    // Each strip after the first copies the 255 of its 767 noise columns
    // it shares with the one before (511 rows each), and runs two 512²
    // tiles.
    let report = rec.report();
    assert_eq!(report.counter(stage::WINDOW_REUSED_SAMPLES), 2 * 255 * 511);
    assert_eq!(report.counter(stage::CONV_FFT_TILES), 3 * 2);
}

#[test]
fn serve_sized_fft_windows_keep_their_hashes() {
    let sizing = KernelSizing::Auto { factor: 8.0, min: 16, max: 128 };
    let p = |cl| SurfaceParams::isotropic(1.0, cl);
    let build = |model: SpectrumModel| ConvolutionKernel::build(&model, sizing);
    let gaussian = build(SpectrumModel::gaussian(p(12.0)));
    let cases = [
        (gaussian.truncated(1e-3), Window::new(-37, 91, 128, 128)),
        (build(SpectrumModel::power_law(p(8.0), 2.0)).truncated(1e-3), Window::new(5, -64, 64, 64)),
        (build(SpectrumModel::exponential(p(4.0))).truncated(1e-3), Window::new(1000, 3, 64, 64)),
        (gaussian.crop(0, 3), Window::new(-8, -8, 64, 64)),
    ];
    let got: Vec<u64> = cases
        .into_iter()
        .zip(17..)
        .map(|((kernel, win), seed)| {
            hash_grid(
                &ConvolutionGenerator::from_kernel(kernel)
                    .with_context(
                        GenContext::new()
                            .with_workers(2)
                            .with_backend(ConvBackend::FftOverlapSave),
                    )
                    .generate(&NoiseField::new(seed), win),
            )
        })
        .collect();
    assert_eq!(got, SERVE_HASHES);
}

#[test]
fn plan_cache_and_parallel_tiles_are_observed() {
    use rrs::obs::stage;
    use rrs_surface::{effective_workers, plan_tiles};
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let (kw, kh) = k.extent();
    let win = Window::sized(220, 160);
    // The case must actually tile and actually parallelise, or the
    // counter assertions below test nothing.
    let shape = plan_tiles(win.nx, win.ny, kw, kh);
    let (tx, ty) = shape.tiles(win.nx, win.ny, kw, kh);
    let total_tiles = (tx * ty) as u64;
    assert!(total_tiles > 1, "geometry drifted: {tx}x{ty} tiles");
    assert!(effective_workers(shape, win.nx, win.ny, kw, kh, 4) > 1);

    let rec = Recorder::enabled();
    let gen = ConvolutionGenerator::from_kernel(k)
        .with_context(
            GenContext::new()
                .with_workers(4)
                .with_backend(ConvBackend::FftOverlapSave)
                .with_recorder(rec.clone()),
        );
    let noise = NoiseField::new(55);
    let first = gen.generate(&noise, win);
    let after_first = rec.report();
    // First request: every plan is a miss (tile transform + kernel
    // spectrum share the same shape, so at least one miss; zero hits
    // would need a pre-warmed cache).
    let misses = after_first.counter(stage::FFT_PLAN_MISS);
    assert!(misses >= 1, "first request must build at least one plan");
    assert_eq!(after_first.counter(stage::CONV_TILES_PARALLEL), total_tiles);
    assert_eq!(after_first.counter(stage::CONV_FFT_TILES), total_tiles);

    // Second identical request: plans come from the cache — misses stay
    // where they were, hits move.
    let second = gen.generate(&noise, win);
    let after_second = rec.report();
    assert_eq!(
        after_second.counter(stage::FFT_PLAN_MISS),
        misses,
        "a repeated shape must not rebuild plans"
    );
    assert!(after_second.counter(stage::FFT_PLAN_HIT) >= 1);
    assert_eq!(first, second, "plan caching must not change output");
}

#[test]
fn shared_plan_cache_is_warm_across_generators() {
    use rrs::obs::stage;
    use rrs_fft::FftPlanCache;
    use std::sync::Arc;
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 6.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let plans = Arc::new(FftPlanCache::new());
    let noise = NoiseField::new(808);
    let win = Window::sized(64, 48);

    // Warm the cache through a plain generator…
    ConvolutionGenerator::from_kernel(k.clone())
        .with_context(
            GenContext::new()
                .with_backend(ConvBackend::FftOverlapSave)
                .with_plan_cache(plans.clone()),
        )
        .generate(&noise, win);

    // …then a strip generator sharing the cache and transforming the same
    // tile shape must hit without a single new plan build.
    let rec = Recorder::enabled();
    let mut sg = StripGenerator::from_generator(
        ConvolutionGenerator::from_kernel(k.clone())
            .with_context(
                GenContext::new()
                    .with_backend(ConvBackend::FftOverlapSave)
                    .with_plan_cache(plans)
                    .with_recorder(rec.clone()),
            ),
        win.ny,
        808,
    );
    let strip = sg.next_strip(win.nx);
    let report = rec.report();
    assert!(report.counter(stage::FFT_PLAN_HIT) >= 1, "shared cache must serve hits");
    assert_eq!(report.counter(stage::FFT_PLAN_MISS), 0, "no plan may be rebuilt");
    // Same surface either way.
    let direct = ConvolutionGenerator::from_kernel(k)
        .with_backend(ConvBackend::Direct)
        .generate(&NoiseField::new(808), Window::sized(win.nx, win.ny));
    assert_close(&direct, &strip, 1e-9, "shared-cache strip");
}

// --- Property suite: FFT ≡ Direct across families / anisotropy / truncation. ---

struct EquivCase {
    family: u8,
    h: f64,
    clx: f64,
    cly: f64,
    truncate: Option<f64>,
    seed: u64,
    x0: i64,
    y0: i64,
    nx: usize,
    ny: usize,
}

fn arb_case() -> impl Gen<Value = EquivCase> {
    from_fn(|rng| EquivCase {
        family: (rng.next_below(3)) as u8,
        h: 0.3 + rng.next_f64() * 2.0,
        clx: 3.0 + rng.next_f64() * 9.0,
        cly: 3.0 + rng.next_f64() * 9.0,
        truncate: if rng.next_below(2) == 0 { Some(10f64.powf(-1.0 - 2.0 * rng.next_f64())) } else { None },
        seed: rng.next_u64(),
        x0: rng.next_below(64) as i64 - 32,
        y0: rng.next_below(64) as i64 - 32,
        nx: 8 + rng.next_below(56) as usize,
        ny: 8 + rng.next_below(56) as usize,
    })
}

rrs_check::props! {
    #![cases = 24]

    /// The overlap-save engine reproduces the direct sum within 1e-9
    /// relative error for random spectrum families, anisotropic
    /// correlation lengths, truncated and full kernels, and arbitrary
    /// window offsets.
    fn fft_backend_matches_direct(case in arb_case(), workers in 1usize..4) {
        let p = SurfaceParams::new(case.h, case.clx, case.cly);
        let s = match case.family {
            0 => SpectrumModel::gaussian(p),
            1 => SpectrumModel::power_law(p, 2.5),
            _ => SpectrumModel::exponential(p),
        };
        let sizing = KernelSizing::Auto { factor: 6.0, min: 16, max: 96 };
        let mut kernel = ConvolutionKernel::build(&s, sizing);
        if let Some(eps) = case.truncate {
            kernel = kernel.truncated(eps);
        }
        let noise = NoiseField::new(case.seed);
        let win = Window::new(case.x0, case.y0, case.nx, case.ny);
        let direct = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_context(
                GenContext::new()
                    .with_workers(workers)
                    .with_backend(ConvBackend::Direct),
            )
            .generate(&noise, win);
        let fft = ConvolutionGenerator::from_kernel(kernel)
            .with_context(
                GenContext::new()
                    .with_workers(workers)
                    .with_backend(ConvBackend::FftOverlapSave),
            )
            .generate(&noise, win);
        let scale = direct.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max).max(1e-30);
        for (i, (a, b)) in direct.as_slice().iter().zip(fft.as_slice()).enumerate() {
            let rel = (a - b).abs() / scale;
            assert!(
                rel <= 1e-9,
                "family {} {}x{} trunc {:?} sample {i}: rel err {rel:e}",
                case.family, case.nx, case.ny, case.truncate
            );
        }
    }

    /// `Auto` always resolves to one of the two concrete engines, and its
    /// output equals that engine's exactly (dispatch adds no arithmetic).
    fn auto_equals_resolved_backend(case in arb_case()) {
        let p = SurfaceParams::new(case.h, case.clx, case.cly);
        let s = SpectrumModel::gaussian(p);
        let sizing = KernelSizing::Auto { factor: 6.0, min: 16, max: 64 };
        let kernel = ConvolutionKernel::build(&s, sizing);
        let noise = NoiseField::new(case.seed);
        let win = Window::new(case.x0, case.y0, case.nx.min(32), case.ny.min(32));
        let auto_gen = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_backend(ConvBackend::Auto);
        let resolved = auto_gen.resolved_backend();
        assert!(matches!(resolved, ConvBackend::Direct | ConvBackend::FftOverlapSave));
        let concrete = ConvolutionGenerator::from_kernel(kernel).with_backend(resolved);
        assert_eq!(
            auto_gen.generate(&noise, win),
            concrete.generate(&noise, win),
            "Auto must be a pure dispatch"
        );
    }
}

// --- Inhomogeneous generator: the kernel-major blend vs the per-sample loop. ---

/// The three layouts the blend property draws from, with windows of
/// each kind (pure, straddling transition bands, partly outside every
/// region) placed by the layout's known geometry.
#[derive(Debug)]
struct BlendCase {
    layout: u8,
    families: [u8; 3],
    h: [f64; 3],
    cl: [f64; 3],
    transition: f64,
    seed: u64,
    size: (usize, usize),
    jitter: (i64, i64),
}

fn arb_blend_case() -> impl Gen<Value = BlendCase> {
    from_fn(|rng| BlendCase {
        layout: rng.next_below(3) as u8,
        families: [rng.next_below(3) as u8, rng.next_below(3) as u8, rng.next_below(3) as u8],
        h: [0.3 + 2.0 * rng.next_f64(), 0.3 + 2.0 * rng.next_f64(), 0.3 + 2.0 * rng.next_f64()],
        cl: [3.0 + 5.0 * rng.next_f64(), 3.0 + 5.0 * rng.next_f64(), 3.0 + 5.0 * rng.next_f64()],
        transition: 4.0 + 8.0 * rng.next_f64(),
        seed: rng.next_u64(),
        size: (8 + rng.next_below(24) as usize, 8 + rng.next_below(24) as usize),
        jitter: (rng.next_below(5) as i64 - 2, rng.next_below(5) as i64 - 2),
    })
}

fn family(f: u8, h: f64, cl: f64) -> SpectrumModel {
    let p = SurfaceParams::isotropic(h, cl);
    match f {
        0 => SpectrumModel::gaussian(p),
        1 => SpectrumModel::power_law(p, 2.5),
        _ => SpectrumModel::exponential(p),
    }
}

/// The case's layout and one window of each kind: pure, straddling a
/// transition band, and partly outside every region (quadrants and pond)
/// or the points' hull.
fn blend_layout(case: &BlendCase) -> (Box<dyn WeightMap>, [Window; 3]) {
    let s: Vec<SpectrumModel> =
        (0..3).map(|i| family(case.families[i], case.h[i], case.cl[i])).collect();
    let (w, h) = case.size;
    let (jx, jy) = case.jitter;
    let t = case.transition;
    let centred =
        |cx: i64, cy: i64| Window::new(cx - w as i64 / 2 + jx, cy - h as i64 / 2 + jy, w, h);
    match case.layout {
        // Quadrants of [0, 64]², no background: outside the domain every
        // sample falls back to its nearest plate.
        0 => {
            let layout = quadrant_layout(64.0, 64.0, [s[0], s[1], s[2], s[0]], t);
            let pure = Window::new(40, 40, w.min(14), h.min(14));
            (Box::new(layout), [pure, centred(32, 32), centred(0, 16)])
        }
        // A pond and a half-plane plate in a background field.
        1 => {
            let plates = vec![
                Plate { region: Region::Circle { cx: 0.0, cy: 0.0, r: 24.0 }, spectrum: s[0] },
                Plate { region: Region::HalfPlane { a: 1.0, b: 0.0, c: -48.0 }, spectrum: s[1] },
            ];
            let layout = PlateLayout::new(plates, Some(s[2]), t);
            (Box::new(layout), [centred(100, 100), centred(24, 0), centred(-48, 40)])
        }
        // Three representative points.
        _ => {
            let points = [(0.0, 0.0), (64.0, 0.0), (32.0, 56.0)]
                .iter()
                .zip(&s)
                .map(|(&(x, y), &spectrum)| RepresentativePoint { x, y, spectrum })
                .collect();
            let layout = PointLayout::new(points, t / 2.0);
            (Box::new(layout), [centred(-40, -40), centred(32, 0), centred(32, -48)])
        }
    }
}

fn blend_generator(
    case: &BlendCase,
    backend: ConvBackend,
    workers: usize,
) -> InhomogeneousGenerator<Box<dyn WeightMap>> {
    let (layout, _) = blend_layout(case);
    InhomogeneousGenerator::new(layout, KernelSizing::Auto { factor: 6.0, min: 16, max: 64 })
        .with_context(
            GenContext::new()
                .with_workers(workers)
                .with_backend(backend),
        )
}

/// An exponential pond in a Gaussian field with a point-free margin: a
/// 72×64 window straddles the shoreline on both sides.
fn pond_in_field(backend: ConvBackend, workers: usize) -> InhomogeneousGenerator<PlateLayout> {
    let pond = Plate {
        region: Region::Circle { cx: 40.0, cy: 32.0, r: 20.0 },
        spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.4, 5.0)),
    };
    let field = SpectrumModel::gaussian(SurfaceParams::isotropic(1.2, 6.0));
    let layout = PlateLayout::new(vec![pond], Some(field), 8.0);
    InhomogeneousGenerator::new(layout, KernelSizing::Auto { factor: 8.0, min: 16, max: 96 })
        .with_context(
            GenContext::new()
                .with_workers(workers)
                .with_backend(backend),
        )
}

const POND_WINDOW: Window = Window { x0: -4, y0: -4, nx: 72, ny: 64 };

#[test]
fn blended_output_is_bit_identical_across_worker_counts() {
    let noise = NoiseField::new(4242);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pond = pond_in_field(ConvBackend::Auto, 1).generate(&noise, POND_WINDOW);
    let case = BlendCase {
        layout: 2,
        families: [0, 1, 2],
        h: [0.5, 1.0, 1.5],
        cl: [4.0, 6.0, 8.0],
        transition: 10.0,
        seed: 7,
        size: (48, 40),
        jitter: (0, 0),
    };
    let (_, [_, straddle, _]) = blend_layout(&case);
    let points = blend_generator(&case, ConvBackend::Auto, 1).generate(&noise, straddle);
    for workers in [2, host] {
        let p = pond_in_field(ConvBackend::Auto, workers).generate(&noise, POND_WINDOW);
        assert_eq!(hash_grid(&p), hash_grid(&pond), "pond, workers={workers}");
        let q = blend_generator(&case, ConvBackend::Auto, workers).generate(&noise, straddle);
        assert_eq!(hash_grid(&q), hash_grid(&points), "points, workers={workers}");
    }
}

#[test]
fn paper_figures_on_the_default_backend_match_direct() {
    use rrs_bench::figures::all_figures;
    for fig in all_figures(0.125, 0.01, 3) {
        let noise = NoiseField::new(fig.seed);
        let win = Window::new(fig.origin.0, fig.origin.1, fig.nx, fig.ny);
        assert_eq!(fig.generator.context().backend(), ConvBackend::Auto);
        let auto = fig.generator.generate(&noise, win);
        let ctx = fig.generator.context().clone().with_backend(ConvBackend::Direct);
        let direct = fig.generator.with_context(ctx).generate(&noise, win);
        assert_close(&direct, &auto, 1e-9, fig.id);
    }
}

#[test]
fn fft_tile_fault_on_a_blended_window_degrades_to_the_direct_hash() {
    use rrs::obs::stage;
    let noise = NoiseField::new(99);
    let direct = hash_grid(&pond_in_field(ConvBackend::Direct, 1).generate(&noise, POND_WINDOW));
    // Visit 0 is the pond kernel's first tile; the fault lands at the
    // second one, mid-blend.
    let chaos = ChaosInjector::new(
        FaultSchedule::new(11).with_fault(FaultSite::FftTile, FaultKind::Error, 1),
    );
    let rec = Recorder::enabled();
    let gen = pond_in_field(ConvBackend::Auto, 1);
    let ctx = gen.context().clone().with_recorder(rec.clone()).with_chaos(chaos.clone());
    let gen = gen.with_context(ctx);
    let got = gen.try_generate(&noise, POND_WINDOW).unwrap();
    assert_eq!(hash_grid(&got), direct, "degraded output must hash like a clean Direct run");
    assert_eq!(chaos.injected(), 1);
    let report = rec.report();
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1);
    assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 1);
    assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 1);
}

/// Cancels `token` on the `at`-th weight lookup, so the cancel lands at
/// a chosen point of a generation.
struct CancellingMap {
    inner: PlateLayout,
    token: CancelToken,
    calls: AtomicU64,
    at: u64,
}

impl WeightMap for CancellingMap {
    fn kernel_count(&self) -> usize {
        self.inner.kernel_count()
    }
    fn spectra(&self) -> Vec<SpectrumModel> {
        self.inner.spectra()
    }
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        if self.calls.fetch_add(1, Ordering::Relaxed) == self.at {
            self.token.cancel();
        }
        self.inner.weights_at(x, y, out)
    }
}

#[test]
fn cancel_during_the_blend_returns_cancelled() {
    use rrs::obs::stage;
    let gen = pond_in_field(ConvBackend::Auto, 1);
    let samples = (POND_WINDOW.nx * POND_WINDOW.ny) as u64;
    let token = CancelToken::new();
    // The weights pass makes one lookup per sample; the cancel fires ten
    // lookups into the first kernel's blending pass.
    let map = CancellingMap {
        inner: gen.map().clone(),
        token: token.clone(),
        calls: AtomicU64::new(0),
        at: samples + 10,
    };
    let rec = Recorder::enabled();
    let cancelling = InhomogeneousGenerator::from_kernels(map, gen.kernels().to_vec())
        .with_context(
            gen.context().clone()
                .with_recorder(rec.clone())
                .with_budget(Budget::unlimited().with_cancel_token(token.clone())),
        );
    let err = cancelling.try_generate(&NoiseField::new(5), POND_WINDOW).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Cancelled, "{err}");
    assert!(token.is_cancelled());
    let report = rec.report();
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1, "the cancel landed mid-blend");
    assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 0, "a cancel never degrades");
    assert_eq!(report.counter(stage::INHOMO_PURE_SAMPLES), 0, "no counts for a failed blend");
}

/// A [`WeightMap`] that stalls once, for `stall`, at its `at`-th lookup.
struct StallingMap {
    inner: PlateLayout,
    calls: AtomicU64,
    at: u64,
    stall: Duration,
}

impl WeightMap for StallingMap {
    fn kernel_count(&self) -> usize {
        self.inner.kernel_count()
    }
    fn spectra(&self) -> Vec<SpectrumModel> {
        self.inner.spectra()
    }
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        if self.calls.fetch_add(1, Ordering::Relaxed) == self.at {
            std::thread::sleep(self.stall);
        }
        self.inner.weights_at(x, y, out)
    }
}

#[test]
fn deadline_during_the_weights_pass_stops_it_at_the_next_row() {
    use rrs::obs::stage;
    let gen = pond_in_field(ConvBackend::Auto, 1);
    let nx = POND_WINDOW.nx as u64;
    // The deadline passes while the pass stalls in its second row.
    let map = StallingMap {
        inner: gen.map().clone(),
        calls: AtomicU64::new(0),
        at: nx + 10,
        stall: Duration::from_millis(400),
    };
    let rec = Recorder::enabled();
    let stalling = InhomogeneousGenerator::from_kernels(map, gen.kernels().to_vec())
        .with_context(
            gen.context().clone()
                .with_recorder(rec.clone())
                .with_budget(Budget::unlimited().with_timeout(Duration::from_millis(200))),
        );
    let err = stalling.try_generate(&NoiseField::new(5), POND_WINDOW).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "{err}");
    // The pass finished the stalled row and stopped at the next row's
    // poll, long before its nx·ny lookups.
    let lookups = stalling.map().calls.load(Ordering::Relaxed);
    assert!(lookups <= 2 * nx && lookups % nx == 0, "{lookups} lookups");
    let report = rec.report();
    assert!(report.counter(stage::BUDGET_POLLS) >= 2);
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 0, "the blend never started");
    assert!(!report.durations.contains_key(stage::WINDOW_MATERIALISE), "no noise window was built");
    assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 0, "a deadline never degrades");
}

#[test]
fn max_bytes_just_below_the_blended_footprint_is_rejected_before_allocating() {
    use rrs::obs::stage;
    use rrs_surface::{effective_workers, plan_tiles_within};
    let noise = NoiseField::new(21);
    let gen = pond_in_field(ConvBackend::Auto, 2);
    let with_ceiling = |max: u128, rec: &Recorder| {
        InhomogeneousGenerator::from_kernels(gen.map().clone(), gen.kernels().to_vec())
            .with_context(
                gen.context().clone()
                    .with_recorder(rec.clone())
                    .with_budget(Budget::unlimited().with_max_bytes(max as usize)),
            )
            .try_generate(&noise, POND_WINDOW)
    };
    let required = |max: u128| match with_ceiling(max, &Recorder::disabled()) {
        Err(RrsError::BudgetExceeded { required_bytes, .. }) => required_bytes,
        other => panic!("expected BudgetExceeded, got {other:?}"),
    };
    // Before the weights pass: the output, 8 bytes a sample, and one tag
    // byte per sample.
    let Window { x0, y0, nx, ny } = POND_WINDOW;
    let samples = (nx * ny) as u128;
    let base = 8 * samples + samples;
    assert_eq!(required(base - 1), base);
    assert_eq!(base, 41_472);

    // After it, plus the one noise window — the union of every kernel's
    // box of nonzero weight grown by that kernel's reach — and the largest
    // tile arenas one kernel's pass holds (tiles at most 256 a side).
    let (mut ux0, mut ux1, mut uy0, mut uy1) = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
    let mut arenas = 0u128;
    let mut weights = Vec::new();
    for (ki, kernel) in gen.kernels().iter().enumerate() {
        let (mut bx0, mut bx1, mut by0, mut by1) = (nx, 0, ny, 0);
        for iy in 0..ny {
            for ix in 0..nx {
                let (gx, gy) = ((x0 + ix as i64) as f64, (y0 + iy as i64) as f64);
                gen.map().weights_at(gx, gy, &mut weights);
                if weights.iter().any(|&(k, _)| k == ki) {
                    (bx0, bx1) = (bx0.min(ix), bx1.max(ix + 1));
                    (by0, by1) = (by0.min(iy), by1.max(iy + 1));
                }
            }
        }
        let (kw, kh) = kernel.extent();
        let (ox, oy) = kernel.origin();
        assert_ne!(ConvBackend::Auto.resolve(kw, kh), ConvBackend::Direct);
        // Box column bx reads noise columns bx − ox − kw + 1 ..= bx − ox.
        ux0 = ux0.min(bx0 as i64 - ox - kw as i64 + 1);
        ux1 = ux1.max(bx1 as i64 - ox);
        uy0 = uy0.min(by0 as i64 - oy - kh as i64 + 1);
        uy1 = uy1.max(by1 as i64 - oy);
        let (bnx, bny) = (bx1 - bx0, by1 - by0);
        let shape = plan_tiles_within(bnx, bny, kw, kh, 256);
        let workers = effective_workers(shape, bnx, bny, kw, kh, 2);
        arenas = arenas.max(shape.scratch_samples_real(workers));
    }
    let union = (ux1 - ux0) as u128 * (uy1 - uy0) as u128;
    let footprint = 8 * (samples + union + arenas) + samples;
    assert_eq!(required(base), footprint);
    assert_eq!(footprint, 429_896);

    let rec = Recorder::enabled();
    match with_ceiling(footprint - 1, &rec) {
        Err(RrsError::BudgetExceeded { required_bytes, .. }) => {
            assert_eq!(required_bytes, footprint)
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let report = rec.report();
    assert_eq!(report.counter(stage::BUDGET_REJECT), 1);
    assert!(!report.durations.contains_key(stage::WINDOW_MATERIALISE), "no noise window was built");
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 0);
    assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 0, "no fallback ran");

    // The exact footprint is admitted and changes nothing.
    let admitted = with_ceiling(footprint, &Recorder::disabled()).unwrap();
    assert_eq!(admitted, gen.generate(&noise, POND_WINDOW));
}

#[test]
fn max_bytes_at_the_homogeneous_fft_footprint_is_admitted_and_one_byte_less_rejected() {
    use rrs::obs::stage;
    use rrs_surface::{effective_workers, plan_tiles};
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let (kw, kh) = kernel.extent();
    let (ox, oy) = kernel.origin();
    let win = Window::new(-3, 5, 150, 90);
    let workers = 2;
    // On the FFT engine: per running worker a packed spectrum plus the
    // lane workspace (a real and an imaginary plane of LANES lanes, one
    // lane longer than the longer 1-D transform), plus the one shared
    // kernel spectrum. None on Direct.
    let shape = plan_tiles(win.nx, win.ny, kw, kh);
    let (fx, fy) = (shape.fft_nx, shape.fft_ny);
    let arenas = effective_workers(shape, win.nx, win.ny, kw, kh, workers);
    assert_eq!(arenas, 2, "the case must run two arenas");
    let packed = 2 * (fx / 2 + 1) * fy;
    let lanes = 2 * rrs_fft::LANES * ((fx / 2).max(fy) + 1);
    let fft_workspace = arenas * (packed + lanes) + packed;
    let noise_window = (win.nx + kw - 1) * (win.ny + kh - 1);
    let noise = NoiseField::new(9);
    let prefetched =
        noise.window(win.x0 - (ox + kw as i64 - 1), win.y0 - (oy + kh as i64 - 1), win.nx + kw - 1, win.ny + kh - 1);
    for (backend, workspace) in [(ConvBackend::Direct, 0), (ConvBackend::FftOverlapSave, fft_workspace)] {
        let generator = |max_bytes: usize, rec: &Recorder| {
            ConvolutionGenerator::from_kernel(kernel.clone())
                .with_context(
                    GenContext::new()
                        .with_workers(workers)
                        .with_backend(backend)
                        .with_recorder(rec.clone())
                        .with_budget(Budget::unlimited().with_max_bytes(max_bytes)),
                )
        };
        // Generation admits the noise window, the output and the
        // workspace; correlating a caller-owned window admits the last
        // two.
        type Input<'a> = (&'a str, usize, &'a dyn Fn(&ConvolutionGenerator) -> Result<Grid2<f64>, RrsError>);
        let inputs: [Input; 2] = [
            ("generate", noise_window, &|g| g.try_generate(&noise, win)),
            ("correlate window", 0, &|g| g.try_correlate_window(&prefetched, win.nx, win.ny)),
        ];
        for (what, window_samples, run) in inputs {
            let footprint = 8 * (window_samples + win.nx * win.ny + workspace);
            let what = format!("{what} on {backend:?}");
            let rec = Recorder::enabled();
            match run(&generator(footprint - 1, &rec)) {
                Err(RrsError::BudgetExceeded { required_bytes, .. }) => {
                    assert_eq!(required_bytes, footprint as u128, "{what}")
                }
                other => panic!("{what}: expected BudgetExceeded, got {other:?}"),
            }
            let report = rec.report();
            assert_eq!(report.counter(stage::BUDGET_REJECT), 1, "{what}");
            assert!(
                !report.durations.contains_key(stage::WINDOW_MATERIALISE),
                "{what}: no noise window was built"
            );
            assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 0, "{what}");
            assert_eq!(report.counter(stage::CONV_BACKEND_DIRECT), 0, "{what}: no fallback ran");

            let admitted = run(&generator(footprint, &Recorder::disabled())).unwrap();
            let unbudgeted =
                ConvolutionGenerator::from_kernel(kernel.clone()).with_backend(backend).generate(&noise, win);
            assert_eq!(admitted, unbudgeted, "{what}");
        }
    }
}

#[test]
fn blend_failures_open_the_breaker_and_skip_to_the_per_sample_loop() {
    use rrs::obs::stage;
    // Three windows across the pond's shoreline, each blending both
    // kernels. A fresh one-worker generator whose first three FFT tile
    // visits fault fails three blends in a row, and each degrades.
    let windows = [Window::new(20, 20, 24, 24), Window::new(70, 40, 24, 24), Window::new(40, 80, 24, 24)];
    let direct = pond_in_field(ConvBackend::Direct, 1);
    let chaos = ChaosInjector::new(
        FaultSchedule::new(8)
            .with_fault(FaultSite::FftTile, FaultKind::Error, 0)
            .with_fault(FaultSite::FftTile, FaultKind::Panic, 1)
            .with_fault(FaultSite::FftTile, FaultKind::Error, 2),
    );
    let rec = Recorder::enabled();
    let gen = pond_in_field(ConvBackend::FftOverlapSave, 1);
    let ctx = gen.context().clone().with_recorder(rec.clone()).with_chaos(chaos.clone());
    let gen = gen.with_context(ctx);
    let noise = NoiseField::new(23);
    for win in windows {
        let got = gen.try_generate(&noise, win).unwrap();
        assert_eq!(hash_grid(&got), hash_grid(&direct.generate(&noise, win)), "{win:?}");
    }
    assert_eq!(chaos.visits(FaultSite::FftTile), 3);
    assert!(gen.backend_health().is_open(), "three failed blends open the breaker");
    let report = rec.report();
    assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 3);
    assert_eq!(report.counter(stage::CONV_BREAKER_SKIPS), 0);

    // The fourth request skips the blend: the per-sample loop serves it
    // without a single FFT tile poll.
    let got = gen.try_generate(&noise, windows[0]).unwrap();
    assert_eq!(hash_grid(&got), hash_grid(&direct.generate(&noise, windows[0])));
    assert_eq!(chaos.visits(FaultSite::FftTile), 3, "an open breaker polls no FFT tile");
    let report = rec.report();
    assert_eq!(report.counter(stage::CONV_BREAKER_SKIPS), 1);
    assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 4);
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 3, "the skipped blend never started");
}

rrs_check::props! {
    #![cases = 16]

    /// The kernel-major blend (`Auto` and `FftOverlapSave`) reproduces
    /// the per-sample loop within 1e-9 relative error on plate and point
    /// layouts, all three spectrum families, and windows that are pure,
    /// straddle transition bands or reach outside every region.
    fn blended_auto_and_fft_match_direct(case in arb_blend_case(), workers in 1usize..4) {
        let noise = NoiseField::new(case.seed);
        let (_, windows) = blend_layout(&case);
        let direct = blend_generator(&case, ConvBackend::Direct, workers);
        let auto = blend_generator(&case, ConvBackend::Auto, workers);
        let fft = blend_generator(&case, ConvBackend::FftOverlapSave, workers);
        assert_eq!(auto.resolved_backend(), ConvBackend::FftOverlapSave);
        for (kind, win) in ["pure", "straddling", "partly outside"].iter().zip(windows) {
            let reference = direct.generate(&noise, win);
            for (name, gen) in [("auto", &auto), ("fft", &fft)] {
                assert_close(
                    &reference,
                    &gen.generate(&noise, win),
                    1e-9,
                    &format!("{name}, {kind} window {win:?}, case {case:?}"),
                );
            }
        }
    }
}

// --- The blend's reads: hashes recorded before it shared one noise window. ---
//
// The blend materialises one noise window per call, the union of every
// active kernel's box grown by that kernel's reach, and gives each kernel
// a pitched view of it; the weights pass tags each sample whose only
// weight is exactly 1 with its kernel, so the blend looks weights up again
// only where a sample is blended. Both change what the blend reads, not
// what it computes. These FNV-1a hashes were recorded from the per-kernel
// noise windows and per-sample lookups they replaced (the lattice-end
// ones from a release build, which wrapped where a test build panicked);
// they are never regenerated.

/// A sub-crossover kernel inside the blend (its field comes from direct
/// dot products reading the pitched view) across a straddling window.
const DIRECT_IN_BLEND_HASH: u64 = 0x7bec9b07076be0c9;
/// 272 representative points, two rows of which (indices 238..272) fall
/// inside the window.
const MANY_POINTS_HASH: u64 = 0x89f2b195a34c2e57;
/// `pond_in_field` over `POND_WINDOW` with seed 4242, at 1 and 3 workers.
const POND_HASH: u64 = 0x7395e0fc5f0889d7;
/// `lattice_end_generator` at `(i64::MIN, 0)` then `(0, i64::MIN)`, each
/// on `Direct` and then `Auto`.
const LATTICE_END_HASHES: [u64; 4] =
    [0x87f72bfaed6e2c14, 0xd066251fd7a48007, 0xf883a83e6bf9c482, 0xbbae00ede2205b58];

#[test]
fn direct_kernels_inside_the_blend_keep_their_hash() {
    use rrs::obs::stage;
    let sizing = KernelSizing::Auto { factor: 8.0, min: 16, max: 64 };
    let left = Plate {
        region: Region::HalfPlane { a: 1.0, b: 0.0, c: 24.0 },
        spectrum: family(0, 0.5, 3.0),
    };
    let layout = PlateLayout::new(vec![left], Some(family(0, 1.5, 6.0)), 8.0);
    let small = ConvolutionKernel::build(&family(0, 0.5, 3.0), sizing).crop(4, 4);
    let large = ConvolutionKernel::build(&family(0, 1.5, 6.0), sizing);
    assert_eq!(ConvBackend::Auto.resolve(9, 9), ConvBackend::Direct);
    let rec = Recorder::enabled();
    let gen = InhomogeneousGenerator::from_kernels(layout, vec![small, large])
        .with_context(GenContext::new().with_workers(2).with_recorder(rec.clone()));
    let got = gen.generate(&NoiseField::new(3), Window::new(-10, 5, 64, 40));
    assert_eq!(rec.report().counter(stage::CONV_BACKEND_FFT), 1, "the blend ran");
    assert_eq!(hash_grid(&got), DIRECT_IN_BLEND_HASH);
}

#[test]
fn point_layouts_past_255_kernels_keep_their_hash() {
    // A 17 × 16 lattice of points 12 apart, row-major, with a 2-sample
    // half-width: every cell has a pure interior. The window covers rows
    // 14 and 15, so samples pure for kernels 238..272 — both sides of
    // index 255 — and the bands between them all fall inside it.
    let points: Vec<RepresentativePoint> = (0..16)
        .flat_map(|r| (0..17).map(move |c| (c, r)))
        .map(|(c, r)| RepresentativePoint {
            x: 12.0 * c as f64,
            y: 12.0 * r as f64,
            spectrum: family(0, 0.4 + 0.01 * (17 * r + c) as f64, 3.0),
        })
        .collect();
    assert_eq!(points.len(), 272);
    let layout = PointLayout::new(points, 2.0);
    let sizing = KernelSizing::Explicit(GridSpec::unit(16, 16));
    let gen = InhomogeneousGenerator::new(layout, sizing)
        .with_context(GenContext::new().with_workers(2));
    assert_eq!(gen.resolved_backend(), ConvBackend::FftOverlapSave);
    let got = gen.generate(&NoiseField::new(57), Window::new(-6, 162, 204, 24));
    assert_eq!(hash_grid(&got), MANY_POINTS_HASH);
}

#[test]
fn pond_window_keeps_its_hash_at_one_and_three_workers() {
    for workers in [1, 3] {
        let gen = pond_in_field(ConvBackend::Auto, workers);
        let got = gen.generate(&NoiseField::new(4242), POND_WINDOW);
        assert_eq!(hash_grid(&got), POND_HASH, "workers={workers}");
    }
}

/// A layout whose kernels reach differently: a plate above `y = 16` on a
/// width-1 kernel (no reach along x), a plate right of `x = 16` on a
/// height-1 kernel (no reach along y), and a background on a full kernel.
/// At `x0 = i64::MIN` the first plate blends with the background and only
/// the background's noise origin wraps; at `y0 = i64::MIN` the same holds
/// for the second plate along y.
fn lattice_end_generator(backend: ConvBackend) -> InhomogeneousGenerator<PlateLayout> {
    let sizing = KernelSizing::Auto { factor: 8.0, min: 16, max: 64 };
    let above = family(0, 0.6, 3.0);
    let right = family(0, 0.9, 3.0);
    let field = family(0, 1.2, 5.0);
    let plates = vec![
        Plate { region: Region::HalfPlane { a: 0.0, b: -1.0, c: -16.0 }, spectrum: above },
        Plate { region: Region::HalfPlane { a: -1.0, b: 0.0, c: -16.0 }, spectrum: right },
    ];
    let kernels = vec![
        ConvolutionKernel::build(&above, sizing).crop(0, 3),
        ConvolutionKernel::build(&right, sizing).crop(3, 0),
        ConvolutionKernel::build(&field, sizing),
    ];
    InhomogeneousGenerator::from_kernels(PlateLayout::new(plates, Some(field), 8.0), kernels)
        .with_context(GenContext::new().with_workers(2).with_backend(backend))
}

#[test]
fn windows_at_the_lattice_ends_keep_their_release_hashes() {
    use rrs::obs::stage;
    let noise = NoiseField::new(71);
    let windows = [Window::new(i64::MIN, 0, 40, 32), Window::new(0, i64::MIN, 32, 40)];
    let mut got = Vec::new();
    for win in windows {
        for backend in [ConvBackend::Direct, ConvBackend::Auto] {
            let rec = Recorder::enabled();
            let gen = lattice_end_generator(backend);
            let ctx = gen.context().clone().with_recorder(rec.clone());
            let gen = gen.with_context(ctx);
            let surface = gen.try_generate(&noise, win).unwrap();
            let report = rec.report();
            assert_eq!(report.counter(stage::CONV_DEGRADED_TO_DIRECT), 0, "{win:?} {backend:?}");
            assert!(report.counter(stage::INHOMO_BLENDED_SAMPLES) > 0, "{win:?} must blend");
            got.push(hash_grid(&surface));
        }
    }
    assert_eq!(got, LATTICE_END_HASHES);
}

#[test]
fn each_blended_window_materialises_one_noise_window() {
    use rrs::obs::stage;
    use rrs_bench::figures::all_figures;
    for fig in all_figures(0.125, 0.01, 3) {
        let rec = Recorder::enabled();
        let ctx = fig.generator.context().clone().with_recorder(rec.clone());
        let gen = fig.generator.with_context(ctx);
        let win = Window::new(fig.origin.0, fig.origin.1, fig.nx, fig.ny);
        gen.try_generate(&NoiseField::new(fig.seed), win).unwrap();
        let report = rec.report();
        assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1, "{}", fig.id);
        assert_eq!(report.durations[stage::WINDOW_MATERIALISE].count, 1, "{}", fig.id);
    }
}

/// Counts every weight lookup made through it.
struct CountingMap<'a> {
    inner: &'a dyn WeightMap,
    calls: AtomicU64,
}

impl WeightMap for CountingMap<'_> {
    fn kernel_count(&self) -> usize {
        self.inner.kernel_count()
    }
    fn spectra(&self) -> Vec<SpectrumModel> {
        self.inner.spectra()
    }
    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.weights_at(x, y, out)
    }
}

#[test]
fn the_blend_looks_weights_up_again_only_where_a_sample_is_blended() {
    use rrs_bench::figures::all_figures;
    // One lookup per sample in the weights pass, plus one per sample of
    // each kernel's box that is not pure for a single kernel.
    const LOOKUPS: [u64; 4] = [18_944, 18_944, 46_680, 94_714];
    for workers in [1, 2] {
        let got: Vec<u64> = all_figures(0.125, 0.01, 3)
            .iter()
            .map(|fig| {
                let map = CountingMap { inner: &**fig.generator.map(), calls: AtomicU64::new(0) };
                let kernels = fig.generator.kernels().to_vec();
                let gen = InhomogeneousGenerator::from_kernels(map, kernels)
                    .with_context(fig.generator.context().clone().with_workers(workers));
                let win = Window::new(fig.origin.0, fig.origin.1, fig.nx, fig.ny);
                gen.try_generate(&NoiseField::new(fig.seed), win).unwrap();
                gen.map().calls.load(Ordering::Relaxed)
            })
            .collect();
        assert_eq!(got, LOOKUPS, "workers={workers}");
    }
}
