//! Noise reuse across streamed strips, and strips at the ends of the
//! lattice.
//!
//! A `ConvolutionGenerator` keeps the noise window of its last request.
//! A request of the same seed, rows and width whose window overlaps it in
//! x — every consecutive strip of a `StripGenerator` — copies the shared
//! columns and evaluates only the new ones. Noise is a pure function of
//! `(seed, ix, iy)`, so every strip must equal the same strip from a
//! fresh generator bit for bit, whatever came before it: other seeds,
//! other rows, failed or cancelled strips, or another thread's requests.

use rrs::obs::stage;
use rrs::prelude::*;
use rrs_surface::plan_tiles;
use std::sync::Arc;

const NY: usize = 24;
const WIDTH: usize = 16;

fn fnv1a(g: &Grid2<f64>) -> u64 {
    let bytes: Vec<u8> = g.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    rrs::num::fnv1a(&bytes)
}

/// A truncated Gaussian kernel wide enough that `Auto` would pick the
/// FFT engine, on an explicit backend.
fn generator(backend: ConvBackend) -> ConvolutionGenerator {
    let s = Gaussian::new(SurfaceParams::new(1.0, 5.0, 3.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    ConvolutionGenerator::from_kernel(kernel)
        .with_context(GenContext::new().with_workers(2).with_backend(backend))
}

fn stream(backend: ConvBackend, seed: u64) -> StripGenerator {
    StripGenerator::from_generator(generator(backend), NY, seed)
}

/// The strip at `x0` from a generator that has never held a window.
fn fresh_strip(backend: ConvBackend, seed: u64, x0: i64) -> Grid2<f64> {
    stream(backend, seed).strip_at(x0, WIDTH)
}

#[test]
fn streamed_strips_reuse_shared_noise_and_equal_fresh_strips_bit_for_bit() {
    for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave] {
        let rec = Recorder::enabled();
        let sg = stream(backend, 7);
        let ctx = sg.context().clone().with_recorder(rec.clone());
        let mut sg = sg.with_context(ctx);
        let (kw, kh) = generator(backend).kernel().extent();
        sg.seek(-40);
        for i in 0..6 {
            let x0 = sg.cursor();
            let strip = sg.next_strip(WIDTH);
            assert_eq!(strip, fresh_strip(backend, 7, x0), "{backend:?} strip {i}");
        }
        // Each strip after the first shares kw − 1 columns of its
        // (WIDTH + kw − 1) × (NY + kh − 1) window with the one before.
        let report = rec.report();
        let shared = ((kw - 1) * (NY + kh - 1)) as u64;
        assert_eq!(
            report.counter(stage::WINDOW_REUSED_SAMPLES),
            5 * shared,
            "{backend:?}"
        );
        assert_eq!(report.counter(stage::STRIP_TILES), 6);
    }
}

#[test]
fn a_changed_seed_or_rows_never_returns_stale_noise() {
    for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave] {
        let rec = Recorder::enabled();
        let gen = generator(backend);
        let ctx = gen.context().clone().with_recorder(rec.clone());
        let gen = gen.with_context(ctx);
        let (a, b) = (NoiseField::new(1), NoiseField::new(2));
        let steps = [
            (a, Window::new(0, 0, 20, 12)),
            (b, Window::new(4, 0, 20, 12)),  // another seed
            (b, Window::new(8, 1, 20, 12)),  // rows moved
            (b, Window::new(12, 1, 20, 13)), // one more row
            (b, Window::new(16, 1, 21, 13)), // one more column
            (b, Window::new(18, 1, 21, 13)), // a plain shift: reused
        ];
        for (i, (noise, win)) in steps.into_iter().enumerate() {
            let want = generator(backend).generate(&noise, win);
            assert_eq!(gen.generate(&noise, win), want, "{backend:?} step {i}");
        }
        let (kw, kh) = gen.kernel().extent();
        let shared = ((21 + kw - 1 - 2) * (13 + kh - 1)) as u64;
        assert_eq!(
            rec.report().counter(stage::WINDOW_REUSED_SAMPLES),
            shared,
            "{backend:?}"
        );
    }
}

#[test]
fn failed_strips_between_good_ones_change_nothing() {
    for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave] {
        let token = CancelToken::new();
        let budget = Budget::unlimited()
            .with_max_bytes(1 << 20)
            .with_cancel_token(token.clone());
        let sg = stream(backend, 11);
        let ctx = sg.context().clone().with_budget(budget);
        let mut sg = sg.with_context(ctx);
        let expect_next = |sg: &mut StripGenerator| {
            let x0 = sg.cursor();
            assert_eq!(
                sg.next_strip(WIDTH),
                fresh_strip(backend, 11, x0),
                "{backend:?} at {x0}"
            );
        };
        expect_next(&mut sg);
        // Over budget: rejected before any noise is touched.
        let err = sg.try_next_strip(1 << 16).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BudgetExceeded);
        expect_next(&mut sg);
        // Cancelled before the strip starts.
        token.cancel();
        assert_eq!(
            sg.try_next_strip(WIDTH).unwrap_err().kind(),
            ErrorKind::Cancelled
        );
        let ctx = sg.context().clone().with_budget(Budget::unlimited());
        let mut sg = sg.with_context(ctx);
        expect_next(&mut sg);
        assert_eq!(sg.cursor(), 3 * WIDTH as i64);
    }
    // Cancelled mid-correlation, after the window was filled: the retry
    // reuses the whole window and still equals a fresh strip.
    let (kw, kh) = generator(ConvBackend::FftOverlapSave).kernel().extent();
    let (tx, ty) = plan_tiles(WIDTH, NY, kw, kh).tiles(WIDTH, NY, kw, kh);
    let second_strip = (tx * ty) as u64;
    let chaos = ChaosInjector::new(FaultSchedule::new(5).with_fault(
        FaultSite::FftTile,
        FaultKind::Cancel,
        second_strip,
    ));
    let rec = Recorder::enabled();
    let sg = stream(ConvBackend::FftOverlapSave, 13);
    let ctx = sg.context().clone().with_chaos(chaos).with_recorder(rec.clone());
    let mut sg = sg.with_context(ctx);
    assert_eq!(
        sg.next_strip(WIDTH),
        fresh_strip(ConvBackend::FftOverlapSave, 13, 0)
    );
    let err = sg.try_next_strip(WIDTH).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Cancelled);
    assert_eq!(sg.cursor(), WIDTH as i64);
    let before = rec.report().counter(stage::WINDOW_REUSED_SAMPLES);
    assert_eq!(
        sg.next_strip(WIDTH),
        fresh_strip(ConvBackend::FftOverlapSave, 13, WIDTH as i64)
    );
    let whole = ((WIDTH + kw - 1) * (NY + kh - 1)) as u64;
    assert_eq!(
        rec.report().counter(stage::WINDOW_REUSED_SAMPLES) - before,
        whole
    );
}

#[test]
fn two_threads_sharing_one_generator_stay_correct() {
    for backend in [ConvBackend::Direct, ConvBackend::FftOverlapSave] {
        let gen = Arc::new(generator(backend));
        // Each thread streams its own stretch and seed through the shared
        // generator, so the held window keeps changing hands.
        let requests = |t: i64| -> Vec<(NoiseField, Window)> {
            (0..12)
                .map(|i| {
                    (
                        NoiseField::new(t as u64 % 2),
                        Window::new(t * 1000 + i * 9, t, 18, 10),
                    )
                })
                .collect()
        };
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let gen = Arc::clone(&gen);
                std::thread::spawn(move || {
                    requests(t)
                        .into_iter()
                        .map(|(n, w)| gen.generate(&n, w))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("thread finished");
            for (i, ((noise, win), g)) in requests(t as i64).into_iter().zip(got).enumerate() {
                let want = generator(backend).generate(&noise, win);
                assert_eq!(g, want, "{backend:?} thread {t} request {i}");
            }
        }
    }
}

/// Hashes of the strips at the two ends of the lattice, `[Direct,
/// FftOverlapSave] × [i64::MIN, i64::MAX − 8]`: first recorded from a
/// release build (which wrapped coordinates) before the noise window
/// wrapped in every build, and re-recorded once when the lattice's key
/// and deviate changed.
const LATTICE_END_HASHES: [[u64; 2]; 2] = [
    [0xc575aa3437516bef, 0xa7b7f105fba40d83],
    [0x4ad7c2c3200de4a8, 0x1d36e40080e6de5c],
];

#[test]
fn strips_at_the_ends_of_the_lattice_wrap_like_release_builds() {
    for (backend, want) in [ConvBackend::Direct, ConvBackend::FftOverlapSave]
        .into_iter()
        .zip(LATTICE_END_HASHES)
    {
        let mut sg = stream(backend, 3);
        let mut got = [0; 2];
        for (slot, x0) in got.iter_mut().zip([i64::MIN, i64::MAX - 8]) {
            sg.seek(x0);
            let strip = sg.try_next_strip(8).unwrap();
            assert!(
                strip.as_slice().iter().all(|v| v.is_finite()),
                "{backend:?} at {x0}"
            );
            *slot = fnv1a(&strip);
        }
        assert_eq!(got, want, "{backend:?}");
        // The stream ends at the last lattice column, typed.
        assert_eq!(sg.cursor(), i64::MAX);
        assert_eq!(
            sg.try_next_strip(1).unwrap_err().kind(),
            ErrorKind::InvalidParam
        );
    }
}

/// A `Direct` window 1500 samples wide under a 33-wide kernel: each of
/// its 1532-sample noise rows spans many fill blocks and ends mid-block.
/// Re-recorded once when the lattice's key and deviate changed; no
/// change to the fill may move it.
const WIDE_DIRECT_HASH: u64 = 0xe4f4_e5ff_7039_f686;

#[test]
fn direct_windows_wider_than_a_noise_batch_keep_their_hash() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 6.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).crop(16, 2);
    assert_eq!(kernel.extent(), (33, 5));
    let g = ConvolutionGenerator::from_kernel(kernel)
        .with_context(
            GenContext::new()
                .with_workers(2)
                .with_backend(ConvBackend::Direct),
        )
        .generate(&NoiseField::new(23), Window::new(-700, 9, 1500, 3));
    assert_eq!(fnv1a(&g), WIDE_DIRECT_HASH);
}

/// Three consecutive 1200-wide strips on `FftOverlapSave` under a 17×17
/// kernel: after the first, each strip's 1200 fresh noise columns start
/// mid-row, after the 16 it shares, off the fill's 8-sample blocks.
/// Re-recorded once when the lattice's key and deviate changed; no
/// change to the fill may move them.
const WIDE_STRIP_HASHES: [u64; 3] =
    [0x0c95_17bb_278b_1ea7, 0x46b6_4627_6ad8_21e9, 0x8cfc_51d5_7ccf_c9bf];

#[test]
fn wide_fft_strips_keep_their_hashes() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 2.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).crop(8, 8);
    let rec = Recorder::enabled();
    let gen = ConvolutionGenerator::from_kernel(kernel).with_context(
        GenContext::new()
            .with_workers(2)
            .with_backend(ConvBackend::FftOverlapSave)
            .with_recorder(rec.clone()),
    );
    let mut sg = StripGenerator::from_generator(gen, 8, 29);
    sg.seek(-1500);
    let got: Vec<u64> = (0..3).map(|_| fnv1a(&sg.next_strip(1200))).collect();
    assert_eq!(got, WIDE_STRIP_HASHES);
    assert_eq!(
        rec.report().counter(stage::WINDOW_REUSED_SAMPLES),
        2 * 16 * (8 + 16)
    );
}
