//! Runtime budgets across the full stack: cooperative cancellation at
//! every tile boundary leaves resumable state bit-identical to the
//! uncancelled run's prefix; deadline and cancel errors are deterministic
//! under the serial fallback; with no budget (or an armed-but-idle one)
//! every generator is bit-identical to its unbudgeted self; and admission
//! control rejects oversized requests before anything is allocated.

use rrs::prelude::*;
use rrs::spectrum::GridSpec;
use rrs::surface::NoiseField;
use std::time::{Duration, Instant};

const NY: usize = 24;
const STRIP_W: usize = 8;
const N_STRIPS: usize = 6;
const SEED: u64 = 0xBADCAFE;

fn generator() -> ConvolutionGenerator {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    ConvolutionGenerator::new(&s, KernelSizing::Explicit(GridSpec::unit(16, 16))).with_workers(2)
}

fn stream(budget: Budget) -> StripGenerator {
    StripGenerator::from_generator(generator().with_budget(budget), NY, SEED)
}

/// Runs a budgeted stream to completion or until the budget trips,
/// checkpointing after every strip. Returns the strips emitted and the
/// final resumable checkpoint.
fn run_stream(mut sg: StripGenerator) -> (Vec<Grid2<f64>>, StreamCheckpoint) {
    let mut strips = Vec::new();
    while (sg.cursor() as usize) < N_STRIPS * STRIP_W {
        match sg.try_next_strip(STRIP_W) {
            Ok(s) => strips.push(s),
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::Cancelled, "only cancel trips in this test");
                break;
            }
        }
    }
    let cp = StreamCheckpoint {
        seed: sg.seed(),
        height: sg.height() as u64,
        cursor: sg.cursor(),
    };
    (strips, cp)
}

#[test]
fn cancel_at_every_tile_index_leaves_resumable_bit_identical_prefixes() {
    let (reference, _) = run_stream(stream(Budget::unlimited()));
    assert_eq!(reference.len(), N_STRIPS);

    for cancel_at in 0..N_STRIPS {
        // The token trips after `cancel_at` strips: a watcher cancelling
        // an in-flight stream at an arbitrary tile boundary.
        let token = CancelToken::new();
        let mut sg = stream(Budget::unlimited().with_cancel_token(token.clone()));
        let mut strips = Vec::new();
        for i in 0..N_STRIPS {
            if i == cancel_at {
                token.cancel();
            }
            match sg.try_next_strip(STRIP_W) {
                Ok(s) => strips.push(s),
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::Cancelled, "cancel_at={cancel_at}");
                    break;
                }
            }
        }
        assert_eq!(strips.len(), cancel_at, "stream stops within one tile of the cancel");

        // The emitted prefix is bit-identical to the uncancelled run...
        for (i, (got, want)) in strips.iter().zip(&reference).enumerate() {
            assert_eq!(got.as_slice(), want.as_slice(), "cancel_at={cancel_at}: strip {i}");
        }
        // ...and the resumable state continues the identical surface.
        let cp = StreamCheckpoint {
            seed: sg.seed(),
            height: sg.height() as u64,
            cursor: sg.cursor(),
        };
        assert_eq!(cp.cursor, (cancel_at * STRIP_W) as i64, "cursor never advances past a trip");
        let mut resumed =
            StripGenerator::try_from_generator(generator(), cp.height as usize, cp.seed).unwrap();
        resumed.seek(cp.cursor);
        let (rest, _) = run_stream(resumed);
        let mut all = strips;
        all.extend(rest);
        assert_eq!(all.len(), N_STRIPS, "cancel_at={cancel_at}");
        for (i, (got, want)) in all.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "cancel_at={cancel_at}: strip {i} differs after resume"
            );
        }
    }
}

#[test]
fn pre_cancelled_token_returns_cancelled_without_allocating() {
    let token = CancelToken::new();
    token.cancel();
    let gen = generator().with_budget(Budget::unlimited().with_cancel_token(token));
    // This window's output alone is ~8 EiB of f64s: any allocation
    // attempt would abort the process, so returning Cancelled proves the
    // pre-flight check fires before allocation.
    let win = Window::new(0, 0, 1 << 30, 1 << 30);
    let err = gen.try_generate(&NoiseField::new(SEED), win).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Cancelled);
}

#[test]
fn deadline_and_cancel_are_deterministic_under_serial_fallback() {
    // workers = 1 exercises the serial path of the budgeted primitive:
    // the same deterministic error must surface as in the parallel path.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    let base = ConvolutionGenerator::new(&s, KernelSizing::Explicit(GridSpec::unit(16, 16)));
    let noise = NoiseField::new(SEED);
    let win = Window::sized(32, 32);

    let expired = base
        .with_workers(1)
        .with_budget(Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1)));
    for _ in 0..3 {
        let err = expired.try_generate(&noise, win).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "deterministic across calls");
    }

    let token = CancelToken::new();
    token.cancel();
    let cancelled = ConvolutionGenerator::new(&s, KernelSizing::Explicit(GridSpec::unit(16, 16)))
        .with_workers(1)
        .with_budget(Budget::unlimited().with_cancel_token(token));
    for _ in 0..3 {
        let err = cancelled.try_generate(&noise, win).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cancelled, "deterministic across calls");
    }
}

#[test]
fn all_generators_are_bit_identical_with_no_budget_and_armed_idle_budget() {
    let armed = || {
        Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(Duration::from_secs(3600))
            .with_max_bytes(usize::MAX)
    };
    let noise = NoiseField::new(SEED);
    let win = Window::new(-5, 3, 40, 24);

    // Convolution generator.
    let plain = generator().generate(&noise, win);
    let budgeted = generator().with_budget(armed()).try_generate(&noise, win).unwrap();
    assert_eq!(plain, budgeted, "convolution");

    // Strip generator.
    let mut a = stream(Budget::unlimited());
    let mut b = stream(armed());
    for i in 0..3 {
        assert_eq!(a.next_strip(STRIP_W), b.try_next_strip(STRIP_W).unwrap(), "strip {i}");
    }

    // Inhomogeneous generator.
    let plates = PlateLayout::new(
        vec![Plate {
            region: Region::HalfPlane { a: 1.0, b: 0.0, c: 20.0 },
            spectrum: SpectrumModel::gaussian(SurfaceParams::isotropic(0.5, 3.0)),
        }],
        Some(SpectrumModel::gaussian(SurfaceParams::isotropic(1.5, 3.0))),
        6.0,
    );
    let sizing = KernelSizing::Explicit(GridSpec::unit(16, 16));
    let plain = InhomogeneousGenerator::new(plates.clone(), sizing)
        .with_workers(2)
        .generate(&noise, win);
    let budgeted = InhomogeneousGenerator::new(plates, sizing)
        .with_workers(2)
        .with_budget(armed())
        .try_generate(&noise, win)
        .unwrap();
    assert_eq!(plain, budgeted, "inhomogeneous");
}

#[test]
fn oversized_strip_fails_with_budget_exceeded_not_abort() {
    let sg = stream(Budget::unlimited().with_max_bytes(1 << 20));
    let err = sg.try_strip_at(0, 1 << 30).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::BudgetExceeded);
    let msg = err.to_string();
    assert!(msg.contains("byte budget"), "{msg}");
    // Within the ceiling the stream still generates, identically.
    assert_eq!(
        sg.try_strip_at(16, STRIP_W).unwrap(),
        stream(Budget::unlimited()).strip_at(16, STRIP_W),
    );
}

#[test]
fn retrying_checkpoints_compose_with_budgeted_streams() {
    // The README workflow: generate under a deadline, checkpoint durably
    // with retries, resume after the deadline fires.
    let dir = std::env::temp_dir().join(format!("rrs_budget_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("stream.ckpt");

    let mut sg = stream(Budget::unlimited().with_timeout(Duration::from_secs(3600)));
    let mut emitted = Vec::new();
    for _ in 0..3 {
        emitted.push(sg.try_next_strip(STRIP_W).unwrap());
        write_checkpoint_file_retrying(
            &ckpt,
            &StreamCheckpoint {
                seed: sg.seed(),
                height: sg.height() as u64,
                cursor: sg.cursor(),
            },
            RetryPolicy::default(),
            &Recorder::disabled(),
        )
        .unwrap();
    }

    let cp = rrs::io::read_checkpoint_file(&ckpt).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cp.cursor, 3 * STRIP_W as i64);
    let mut resumed =
        StripGenerator::try_from_generator(generator(), cp.height as usize, cp.seed).unwrap();
    resumed.seek(cp.cursor);
    let (reference, _) = run_stream(stream(Budget::unlimited()));
    emitted.extend(run_stream(resumed).0);
    assert_eq!(emitted.len(), N_STRIPS);
    for (i, (got, want)) in emitted.iter().zip(&reference).enumerate() {
        assert_eq!(got.as_slice(), want.as_slice(), "strip {i} differs after resume");
    }
}

// --- The FFT overlap-save backend honours the same budget contract. ---

fn fft_generator() -> ConvolutionGenerator {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    ConvolutionGenerator::new(&s, KernelSizing::Explicit(GridSpec::unit(16, 16)))
        .with_workers(2)
        .with_backend(ConvBackend::FftOverlapSave)
}

#[test]
fn fft_backend_polls_budget_at_tile_granularity() {
    use rrs::obs::stage;
    // An armed-but-idle budget must poll at least once per overlap-save
    // tile — that is the granularity at which cancellation can take
    // effect — and must not change a single output bit.
    let noise = NoiseField::new(SEED);
    let win = Window::sized(96, 96);
    let plain = fft_generator().generate(&noise, win);

    let rec = Recorder::enabled();
    let armed = fft_generator().with_recorder(rec.clone()).with_budget(
        Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(Duration::from_secs(3600)),
    );
    assert_eq!(armed.try_generate(&noise, win).unwrap(), plain);
    let report = rec.report();
    let tiles = report.counter(stage::CONV_FFT_TILES);
    let polls = report.counter(stage::BUDGET_POLLS);
    assert_eq!(report.counter(stage::CONV_BACKEND_FFT), 1);
    assert!(tiles >= 1, "the FFT engine must tile the window");
    assert!(polls >= tiles, "one budget poll per tile minimum: {polls} polls, {tiles} tiles");
}

#[test]
fn fft_backend_rejections_match_the_direct_contract() {
    let noise = NoiseField::new(SEED);
    // Pre-cancelled: the pre-flight check fires before the huge window
    // (or any FFT scratch) is allocated.
    let token = CancelToken::new();
    token.cancel();
    let gen = fft_generator().with_budget(Budget::unlimited().with_cancel_token(token));
    let huge = Window::new(0, 0, 1 << 30, 1 << 30);
    let err = gen.try_generate(&noise, huge).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Cancelled);

    // Expired deadline: deterministic across calls, like the direct path.
    let expired = fft_generator()
        .with_budget(Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1)));
    for _ in 0..3 {
        let err = expired.try_generate(&noise, Window::sized(32, 32)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "deterministic across calls");
    }

    // Admission control counts the tile workspace the FFT engine needs
    // on top of the window and output, and still fires before any of it
    // is allocated.
    let gen = fft_generator().with_budget(Budget::unlimited().with_max_bytes(1 << 20));
    let err = gen.try_generate(&noise, huge).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::BudgetExceeded);
}

#[test]
fn fft_stream_cursor_does_not_advance_on_cancel() {
    let token = CancelToken::new();
    let mut sg = StripGenerator::from_generator(
        fft_generator().with_budget(Budget::unlimited().with_cancel_token(token.clone())),
        NY,
        SEED,
    );
    let first = sg.next_strip(STRIP_W);
    assert_eq!(sg.cursor(), STRIP_W as i64);
    token.cancel();
    let err = sg.try_next_strip(STRIP_W).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Cancelled);
    assert_eq!(sg.cursor(), STRIP_W as i64, "failed FFT strip must not advance the cursor");
    // The emitted prefix still matches an unbudgeted FFT stream.
    let mut fresh = StripGenerator::from_generator(fft_generator(), NY, SEED);
    assert_eq!(fresh.next_strip(STRIP_W), first);
}
