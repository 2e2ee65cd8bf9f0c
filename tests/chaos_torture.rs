//! Whole-pipeline chaos torture suite.
//!
//! Drives a representative pipeline — an FFT-ladder strip stream, a
//! Direct-backend convolution, and a retrying checkpoint write — under a
//! seeded [`FaultSchedule`], across every [`FaultSite`] × [`FaultKind`]
//! combination, and pins the fault-model contract:
//!
//! * **no escaped panics** — an injected panic anywhere surfaces as a
//!   typed [`RrsError::WorkerPanicked`] or is absorbed by the backend
//!   degradation ladder, never an unwind through a public API;
//! * **typed outcomes** — every failed run's [`ErrorKind`] matches the
//!   injected kind (`Panic → WorkerPanicked`, `Error → FaultInjected`,
//!   `Cancel → Cancelled`, `Deadline → DeadlineExceeded`);
//! * **bit-identical degradation** — when the FFT rung is killed, the
//!   Direct rung serves the request with output FNV-1a-hash-equal to a
//!   clean Direct run, and the degradation is visible in the obs report;
//! * **replayability** — the same schedule seed reproduces the same
//!   outcome and the same per-site visit counts bit-for-bit.

use rrs::io::ThreadSleeper;
use rrs::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in bits {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn hash_grid(g: &Grid2<f64>) -> u64 {
    fnv1a(g.as_slice().iter().map(|v| v.to_bits()))
}

/// Silences the default panic-hook noise for intentionally injected chaos
/// panics (they are caught and converted to typed errors; their backtrace
/// spam would drown the test output). Real panics still print.
fn quiet_chaos_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("chaos: injected panic") {
                prev(info);
            }
        }));
    });
}

fn io_err() -> RrsError {
    RrsError::from(std::io::Error::other("transient disk wobble"))
}

/// A scratch directory private to one test: the tests run in parallel,
/// and two pipelines writing the same checkpoint path race on its
/// temporary file, which adds retries and breaks visit-count replay.
fn tmp_dir(test: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir()
        .join(format!("rrs_chaos_torture_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// One representative pass over the whole pipeline, single-worker so every
/// fault-site visit order is deterministic. A clean pass visits all six
/// sites:
///
/// * strip generation on the FFT ladder — `StripTile`,
///   `PlanCacheLookup`, `FftTile`;
/// * a Direct-backend convolution — `ParBandSlice`;
/// * a checkpoint write that fails once with a transient I/O error and is
///   retried — `RetrySleep` (before the backoff) and `CheckpointWrite`
///   (before each attempt).
///
/// Returns the FNV-1a hash of everything generated.
fn run_pipeline(chaos: &ChaosInjector, dir: &std::path::Path) -> Result<u64, RrsError> {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    let sg = StripGenerator::new(&s, KernelSizing::default(), 16, 42)
        .with_backend(ConvBackend::FftOverlapSave)
        .with_chaos(chaos.clone());
    let strip = sg.try_strip_at(0, 12)?;

    let gen = ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_workers(1)
        .with_backend(ConvBackend::Direct)
        .with_chaos(chaos.clone());
    let field = gen.try_generate(&NoiseField::new(7), Window::sized(12, 12))?;

    let fails = AtomicU32::new(1);
    let policy = RetryPolicy { max_attempts: 3, base_delay: Duration::from_micros(1) };
    let path = dir.join("torture.ckpt");
    let cp = StreamCheckpoint { seed: 42, height: 16, cursor: 12 };
    policy.run_with_sleeper_budgeted(
        &Recorder::disabled(),
        &ThreadSleeper,
        &Budget::unlimited(),
        chaos,
        &mut || {
            chaos.poll_contained(FaultSite::CheckpointWrite)?;
            if fails
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(io_err());
            }
            write_checkpoint_file(&path, &cp)
        },
    )?;

    Ok(fnv1a(
        strip
            .as_slice()
            .iter()
            .chain(field.as_slice())
            .map(|v| v.to_bits()),
    ))
}

#[test]
fn armed_but_empty_schedule_visits_every_site_and_changes_nothing() {
    let dir = tmp_dir("armed");
    let clean = run_pipeline(&ChaosInjector::disabled(), &dir).unwrap();
    // An armed schedule with no faults counts visits but injects nothing;
    // it must not change a single output bit.
    let counting = ChaosInjector::new(FaultSchedule::new(99));
    assert_eq!(run_pipeline(&counting, &dir).unwrap(), clean);
    assert_eq!(counting.injected(), 0);
    for site in FaultSite::PIPELINE {
        assert!(
            counting.visits(site) > 0,
            "pipeline never reached fault site {site:?}"
        );
    }
    // Network sites live in the serving transport seam; an in-process
    // pipeline run never touches them (the partition suite does).
    for site in FaultSite::NETWORK {
        assert_eq!(counting.visits(site), 0, "pipeline should not reach {site:?}");
    }
}

#[test]
fn every_site_and_kind_returns_typed_errors_or_degrades() {
    quiet_chaos_panics();
    let dir = tmp_dir("every");
    for site in FaultSite::ALL {
        for kind in FaultKind::ALL {
            for at_index in [0u64, 1] {
                let chaos = ChaosInjector::new(
                    FaultSchedule::new(1000).with_fault(site, kind, at_index),
                );
                let label = format!("{site:?}/{kind:?}@{at_index}");
                match run_pipeline(&chaos, &dir) {
                    Ok(_) => {
                        // A clean result is legal only if the fault never
                        // fired, or fired a degradable kind the backend
                        // ladder absorbed.
                        if chaos.injected() > 0 {
                            assert!(
                                matches!(kind, FaultKind::Panic | FaultKind::Error),
                                "{label}: non-degradable fault fired yet the run succeeded"
                            );
                        }
                    }
                    Err(e) => {
                        assert_eq!(chaos.injected(), 1, "{label}: fault must have fired");
                        let want = match kind {
                            FaultKind::Panic => ErrorKind::WorkerPanicked,
                            FaultKind::Error => ErrorKind::FaultInjected,
                            FaultKind::Cancel => ErrorKind::Cancelled,
                            FaultKind::Deadline => ErrorKind::DeadlineExceeded,
                            _ => unreachable!(),
                        };
                        assert_eq!(e.kind(), want, "{label}: {e}");
                    }
                }
            }
        }
    }
}

#[test]
fn killing_both_fft_rungs_degrades_to_direct_hash_equal() {
    quiet_chaos_panics();
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    let noise = NoiseField::new(29);
    let win = Window::sized(20, 20);
    let clean_hash = hash_grid(
        &ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_workers(1)
            .with_backend(ConvBackend::Direct)
            .generate(&noise, win),
    );
    // The serial tile loop visits FftTile deterministically: visit 0
    // kills the overlap-save rung, and the Direct rung serves the
    // request.
    let chaos = ChaosInjector::new(
        FaultSchedule::new(3).with_fault(FaultSite::FftTile, FaultKind::Panic, 0),
    );
    let rec = Recorder::enabled();
    let got = ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_workers(1)
        .with_backend(ConvBackend::FftOverlapSave)
        .with_recorder(rec.clone())
        .with_chaos(chaos.clone())
        .try_generate(&noise, win)
        .unwrap();
    assert_eq!(
        hash_grid(&got),
        clean_hash,
        "degraded output must hash identically to a clean Direct run"
    );
    assert_eq!(chaos.visits(FaultSite::FftTile), 1, "one tile poll on the failed rung");
    let report = rec.report();
    assert_eq!(report.counter("conv/degraded_to_direct"), 1);
    assert_eq!(report.counter("conv/backend_direct"), 1);
}

#[test]
fn seeded_schedules_replay_bit_for_bit() {
    quiet_chaos_panics();
    let dir = tmp_dir("seeded");
    for seed in [1u64, 17, 0xDEAD_BEEF] {
        let run = |schedule: FaultSchedule| {
            let chaos = ChaosInjector::new(schedule);
            let outcome = match run_pipeline(&chaos, &dir) {
                Ok(h) => Ok(h),
                Err(e) => Err(e.to_string()),
            };
            let visits: Vec<u64> = FaultSite::ALL.iter().map(|&s| chaos.visits(s)).collect();
            (outcome, visits, chaos.injected())
        };
        let a = run(FaultSchedule::seeded(seed, 3, 4));
        let b = run(FaultSchedule::seeded(seed, 3, 4));
        assert_eq!(a, b, "seed {seed}: replay must be bit-for-bit identical");
    }
}

#[test]
fn degraded_strip_stream_still_tiles_seamlessly() {
    quiet_chaos_panics();
    // Kill the FFT rung for the first strip only; later strips run the
    // FFT path. The degraded strip must still tile seamlessly against
    // its neighbours because the Direct rung computes the same sum.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
    let clean = StripGenerator::new(&s, KernelSizing::default(), 24, 11)
        .with_backend(ConvBackend::Direct);
    let chaos = ChaosInjector::new(
        FaultSchedule::new(5).with_fault(FaultSite::FftTile, FaultKind::Panic, 0),
    );
    let faulted = StripGenerator::new(&s, KernelSizing::default(), 24, 11)
        .with_backend(ConvBackend::FftOverlapSave)
        .with_chaos(chaos);
    let degraded = faulted.try_strip_at(0, 8).unwrap();
    assert_eq!(
        hash_grid(&degraded),
        hash_grid(&clean.strip_at(0, 8)),
        "degraded strip must be bit-identical to the Direct reference"
    );
}
