//! Minimal data-parallel substrate built on `std::thread::scope`.
//!
//! The workspace's hot loops (convolution output rows, FFT overlap-save
//! tiles, 2-D FFT rows and columns) are embarrassingly parallel over
//! disjoint bands. Rather than pull in a full work-stealing runtime, this
//! crate provides one fan-out loop with a fixed, caller-controllable
//! worker count so generation remains deterministic, and two entry
//! points on it:
//!
//! * [`try_par_rows`] — row bands of a mutable row-major buffer, with
//!   cooperative [`Budget`] polling and [`ChaosInjector`] fault sites;
//! * [`try_par_bands`] — the loop itself, over bands the caller has cut
//!   (the FFT tile loop's index ranges, a 2-D FFT pass's rows or
//!   columns).
//!
//! Determinism note: every band partition is *static*; outputs never
//! depend on scheduling, only on the partition, which itself depends only
//! on `(len, workers)` ([`split_range`]).
//!
//! # Panic containment
//!
//! Every band runs under `catch_unwind`. A panicking band surfaces as a
//! structured [`RrsError::WorkerPanicked`] naming the band and carrying
//! the panic payload; all bands still run to completion (or their own
//! failure) before the call returns, and the lowest-indexed failed band's
//! error wins.
//!
//! # Observability
//!
//! Bands executed and worker panics are reported to a
//! [`rrs_obs::Recorder`] as `par/bands` and `par/worker_panics`; budget
//! polls as `budget/polls`. With a [`Recorder::disabled`] recorder
//! nothing is recorded — no clock reads, no locks.

#![warn(missing_docs)]

use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, ErrorKind, RrsError};
use rrs_obs::{stage, Recorder};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Returns the number of worker threads to use: the `RRS_THREADS`
/// environment variable if set and positive, otherwise the machine's
/// available parallelism, otherwise 1.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("RRS_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Statically splits the half-open range `[0, n)` into `parts` near-equal
/// sub-ranges; returns `(start, end)` pairs. Empty ranges are omitted.
pub fn split_range(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts.min(n));
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        if len == 0 {
            continue;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

/// The fan-out loop: runs `run(i, band)` for every band — on the calling
/// thread when there is only one, otherwise each on its own scoped
/// thread — under `catch_unwind`, so a panic becomes
/// [`RrsError::WorkerPanicked`] naming band `i`. Every band runs to
/// completion (or its own failure) before the call returns; bands join
/// in order and the lowest-indexed failure wins. Ticks
/// [`stage::PAR_BANDS`] once per band and [`stage::PAR_WORKER_PANICS`]
/// once per panicked band. `run` does its own budget and chaos polling.
pub fn try_par_bands<W, F>(bands: Vec<W>, obs: &Recorder, run: F) -> Result<(), RrsError>
where
    W: Send,
    F: Fn(usize, W) -> Result<(), RrsError> + Sync,
{
    let caught = |i: usize, band: W| {
        catch_unwind(AssertUnwindSafe(|| run(i, band)))
            .unwrap_or_else(|p| Err(RrsError::worker_panicked(i, p.as_ref())))
    };
    let results: Vec<Result<(), RrsError>> = if bands.len() <= 1 {
        bands.into_iter().map(|band| caught(0, band)).collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = bands
                .into_iter()
                .enumerate()
                .map(|(i, band)| {
                    let caught = &caught;
                    s.spawn(move || caught(i, band))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("band closures are panic-contained"))
                .collect()
        })
    };
    obs.add_counter(stage::PAR_BANDS, results.len() as u64);
    let panics = results
        .iter()
        .filter(|r| matches!(r, Err(e) if e.kind() == ErrorKind::WorkerPanicked))
        .count();
    if panics > 0 {
        obs.add_counter(stage::PAR_WORKER_PANICS, panics as u64);
    }
    results.into_iter().find_map(Result::err).map_or(Ok(()), Err)
}

/// Poll slices per worker band when a budget or a chaos schedule is
/// armed: each band checks them this many times at most, so a mid-run
/// cancel or an expired deadline stops a worker within
/// `rows_per_band / 8` rows of work instead of only between bands.
const BUDGET_POLL_SLICES: usize = 8;

/// Splits a row-major `row_len`-wide buffer into `min(workers, rows)`
/// balanced bands of whole rows — heights differ by at most one row —
/// and runs `f(first_row_index, rows)` over each band, in parallel.
/// A row is never split across workers, the invariant the 2-D kernels
/// rely on.
///
/// With a budget that needs no polling and a disabled injector, `f` runs
/// once per band. With a deadline or cancel token in `budget`, or an
/// armed `chaos` schedule, each band is split into at most 8
/// (`BUDGET_POLL_SLICES`) whole-row slices, and before each slice the
/// budget is checked (ticking [`stage::BUDGET_POLLS`]) and then
/// [`FaultSite::ParBandSlice`] is polled inside the band's panic
/// containment — so an injected panic, error, cancellation or deadline
/// expiry surfaces exactly where a real one would. A tripped budget or
/// an injected fault stops its band before the slice runs.
///
/// Validates the geometry as [`RrsError::InvalidParam`] (`row_len == 0`)
/// or [`RrsError::ShapeMismatch`] (a ragged buffer) instead of
/// panicking; a panicking band surfaces as [`RrsError::WorkerPanicked`]
/// naming the band's ordinal.
///
/// # Determinism contract
///
/// `f` must be *row-decomposable*: running it over any partition of the
/// same whole rows must produce the same bytes (every workspace band
/// closure computes each row purely from its global row index). That is
/// what makes output independent of the worker count, and a polled run
/// bit-identical to an unpolled one even though `f` is then invoked once
/// per slice rather than once per band.
pub fn try_par_rows<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    obs: &Recorder,
    budget: &Budget,
    chaos: &ChaosInjector,
    f: F,
) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if row_len == 0 {
        return Err(RrsError::invalid_param("row_len", "row_len must be positive, got 0"));
    }
    if data.len() % row_len != 0 {
        return Err(RrsError::shape_mismatch(
            "buffer is not whole rows",
            format!("a multiple of {row_len}"),
            data.len(),
        ));
    }
    let rows = data.len() / row_len;
    if rows == 0 {
        return Ok(());
    }
    let ranges = split_range(rows, workers.max(1).min(rows));
    let polling = budget.needs_polling();
    // Slice height from the tallest band, so every band polls at most
    // BUDGET_POLL_SLICES times regardless of the balanced split.
    let slice_rows = if polling || chaos.is_enabled() {
        let tallest = ranges.iter().map(|&(a, b)| b - a).max().unwrap_or(rows);
        tallest.div_ceil(BUDGET_POLL_SLICES).max(1)
    } else {
        rows
    };
    let mut rest = data;
    let bands: Vec<(usize, &mut [T])> = ranges
        .iter()
        .map(|&(r0, r1)| {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
            rest = tail;
            (r0, band)
        })
        .collect();
    let polls = AtomicU64::new(0);
    let result = try_par_bands(bands, obs, |_, (r0, band)| {
        for (i, slice) in band.chunks_mut(slice_rows * row_len).enumerate() {
            if polling {
                polls.fetch_add(1, Ordering::Relaxed);
                budget.check()?;
            }
            chaos.poll(FaultSite::ParBandSlice)?;
            f(r0 + i * slice_rows, slice);
        }
        Ok(())
    });
    let polls = polls.into_inner();
    if polls > 0 {
        obs.add_counter(stage::BUDGET_POLLS, polls);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_chaos::{FaultKind, FaultSchedule};
    use rrs_error::CancelToken;
    use std::sync::atomic::AtomicUsize;

    /// [`try_par_rows`] with nothing armed.
    fn rows<T: Send>(
        data: &mut [T],
        row_len: usize,
        workers: usize,
        obs: &Recorder,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) -> Result<(), RrsError> {
        try_par_rows(data, row_len, workers, obs, &Budget::unlimited(), &ChaosInjector::disabled(), f)
    }

    #[test]
    fn split_range_covers_exactly() {
        for n in [0usize, 1, 7, 64, 1001] {
            for parts in [1usize, 2, 3, 8, 100] {
                let rs = split_range(n, parts);
                let total: usize = rs.iter().map(|&(a, b)| b - a).sum();
                assert_eq!(total, n);
                let mut prev = 0;
                for &(a, b) in &rs {
                    assert_eq!(a, prev);
                    assert!(b > a);
                    prev = b;
                }
                if let (Some(min), Some(max)) = (
                    rs.iter().map(|&(a, b)| b - a).min(),
                    rs.iter().map(|&(a, b)| b - a).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn row_chunks_never_split_rows() {
        let nx = 7;
        let ny = 13;
        let mut v = vec![0usize; nx * ny];
        rows(&mut v, nx, 4, &Recorder::disabled(), |row0, band| {
            assert_eq!(band.len() % nx, 0, "band must be whole rows");
            for (i, x) in band.iter_mut().enumerate() {
                *x = (row0 * nx) + i;
            }
        })
        .unwrap();
        let expect: Vec<usize> = (0..nx * ny).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn row_chunks_single_worker_and_empty() {
        let mut v = vec![1u8; 12];
        rows(&mut v, 4, 1, &Recorder::disabled(), |row0, band| {
            assert_eq!(row0, 0);
            assert_eq!(band.len(), 12);
        })
        .unwrap();
        let mut empty: Vec<u8> = vec![];
        rows(&mut empty, 4, 3, &Recorder::disabled(), |_, _| panic!("must not run")).unwrap();
    }

    #[test]
    fn row_chunks_more_workers_than_rows() {
        let nx = 5;
        let mut v = vec![0u8; nx * 2];
        rows(&mut v, nx, 64, &Recorder::disabled(), |_, band| {
            for x in band {
                *x += 1;
            }
        })
        .unwrap();
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn try_row_chunks_validates_geometry_without_panicking() {
        let mut v = vec![0u8; 10];
        let err = rows(&mut v, 3, 2, &Recorder::disabled(), |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ShapeMismatch);
        assert!(err.to_string().contains("whole rows"));
        let err = rows(&mut v, 0, 2, &Recorder::disabled(), |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidParam);
    }

    #[test]
    fn try_row_chunks_names_failed_band_serial_and_parallel() {
        for workers in [1usize, 3] {
            let nx = 4;
            let mut v = vec![0u8; nx * 9];
            let err = rows(&mut v, nx, workers, &Recorder::disabled(), |row0, _| {
                if row0 == 0 {
                    panic!("first band down");
                }
            })
            .unwrap_err();
            match err {
                RrsError::WorkerPanicked { band, payload } => {
                    assert_eq!(band, 0);
                    assert!(payload.contains("first band down"));
                }
                other => panic!("workers={workers}: wrong variant {other}"),
            }
        }
    }

    #[test]
    fn lowest_failed_band_wins_and_every_band_still_runs() {
        let ran = AtomicUsize::new(0);
        let mut v = vec![0u8; 4 * 8];
        let err = rows(&mut v, 4, 4, &Recorder::disabled(), |row0, _| {
            ran.fetch_add(1, Ordering::SeqCst);
            if row0 >= 2 {
                panic!("band at row {row0} exploded");
            }
        })
        .unwrap_err();
        match err {
            RrsError::WorkerPanicked { band, payload } => {
                assert_eq!(band, 1, "lowest failed band wins");
                assert!(payload.contains("row 2"), "{payload}");
            }
            other => panic!("wrong variant: {other}"),
        }
        assert_eq!(ran.load(Ordering::SeqCst), 4, "no band is silently skipped");
    }

    #[test]
    fn row_bands_are_balanced_and_use_all_workers() {
        // 9 rows on 8 workers: every worker gets a band and the height
        // spread is at most one row.
        let nx = 3;
        let rec = Recorder::enabled();
        let heights = std::sync::Mutex::new(Vec::new());
        let mut v = vec![0u8; nx * 9];
        rows(&mut v, nx, 8, &rec, |_, band| {
            heights.lock().unwrap().push(band.len() / nx);
        })
        .unwrap();
        assert_eq!(rec.report().counter(stage::PAR_BANDS), 8);
        let heights = heights.into_inner().unwrap();
        let (min, max) = (heights.iter().min().unwrap(), heights.iter().max().unwrap());
        assert!(max - min <= 1, "band heights {heights:?}");
        assert_eq!(heights.iter().sum::<usize>(), 9);
    }

    #[test]
    fn balanced_partition_output_matches_serial() {
        // Band boundaries move with the worker count; row-decomposable
        // closures must still produce byte-identical output.
        let nx = 5;
        let fill = |r0: usize, band: &mut [u64]| {
            for (j, x) in band.iter_mut().enumerate() {
                *x = ((r0 * nx + j) as u64).wrapping_mul(0x9E3779B97F4A7C15);
            }
        };
        let mut want = vec![0u64; nx * 31];
        rows(&mut want, nx, 1, &Recorder::disabled(), fill).unwrap();
        for workers in [2usize, 3, 7, 8, 31, 64] {
            let mut got = vec![0u64; nx * 31];
            rows(&mut got, nx, workers, &Recorder::disabled(), fill).unwrap();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn observed_counters_track_bands_and_panics() {
        let rec = Recorder::enabled();
        let nx = 4;
        let mut v = vec![0u8; nx * 8];
        rows(&mut v, nx, 4, &rec, |_, _| {}).unwrap();
        assert_eq!(rec.report().counter(stage::PAR_BANDS), 4);
        assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 0);

        let err = rows(&mut v, nx, 4, &rec, |row0, _| {
            if row0 >= 4 {
                panic!("upper bands down");
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WorkerPanicked);
        let report = rec.report();
        assert_eq!(report.counter(stage::PAR_BANDS), 8);
        assert_eq!(report.counter(stage::PAR_WORKER_PANICS), 2, "both failed bands counted");
    }

    #[test]
    fn unarmed_bands_run_once_each() {
        let calls = AtomicUsize::new(0);
        for workers in [1usize, 3] {
            calls.store(0, Ordering::SeqCst);
            let mut v = vec![0u64; 6 * 64];
            rows(&mut v, 6, workers, &Recorder::disabled(), |_, _| {
                calls.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            assert_eq!(calls.load(Ordering::SeqCst), workers, "one call per band");
        }
    }

    #[test]
    fn budgeted_armed_idle_is_bit_identical_and_polls() {
        let fill = |r: usize, band: &mut [u64]| {
            band.iter_mut().enumerate().for_each(|(i, x)| *x = (r * 5 + i) as u64 ^ 0xA5)
        };
        let budget = Budget::unlimited()
            .with_cancel_token(CancelToken::new())
            .with_timeout(std::time::Duration::from_secs(3600));
        for workers in [1usize, 4] {
            let rec = Recorder::enabled();
            let mut a = vec![0u64; 5 * 32];
            let mut b = vec![0u64; 5 * 32];
            rows(&mut a, 5, workers, &Recorder::disabled(), fill).unwrap();
            try_par_rows(&mut b, 5, workers, &rec, &budget, &ChaosInjector::disabled(), fill)
                .unwrap();
            assert_eq!(a, b, "workers={workers}");
            let report = rec.report();
            assert_eq!(report.counter(stage::PAR_BANDS), workers as u64);
            assert_eq!(
                report.counter(stage::BUDGET_POLLS),
                (workers * BUDGET_POLL_SLICES) as u64,
                "each band polls once per slice"
            );
        }
    }

    #[test]
    fn budgeted_pre_cancelled_leaves_data_untouched() {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        for workers in [1usize, 4] {
            let mut v = vec![9u64; 6 * 16];
            let err = try_par_rows(&mut v, 6, workers, &Recorder::disabled(), &budget,
                &ChaosInjector::disabled(), |_, band| band.iter_mut().for_each(|x| *x = 0))
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Cancelled);
            assert!(v.iter().all(|&x| x == 9), "no slice ran after a pre-tripped poll");
        }
    }

    #[test]
    fn budgeted_past_deadline_is_deadline_exceeded() {
        let budget = Budget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
        for workers in [1usize, 3] {
            let mut v = vec![1u8; 4 * 8];
            let err = try_par_rows(&mut v, 4, workers, &Recorder::disabled(), &budget,
                &ChaosInjector::disabled(), |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::DeadlineExceeded, "workers={workers}");
        }
    }

    #[test]
    fn budgeted_mid_run_cancel_stops_between_slices() {
        // Serial (workers=1) so slice order is deterministic: the closure
        // trips the token while processing the first slice; the poll before
        // the second slice must observe it and stop.
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel_token(token.clone());
        let rec = Recorder::enabled();
        let mut v = vec![0u64; 4 * 64]; // 64 rows, 1 band, 8-row poll slices
        let err = try_par_rows(&mut v, 4, 1, &rec, &budget, &ChaosInjector::disabled(),
            |row0, band| {
                band.iter_mut().for_each(|x| *x = 1);
                if row0 == 0 {
                    token.cancel();
                }
            })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cancelled);
        let written: u64 = v.iter().sum();
        assert_eq!(written, 4 * 8, "exactly one 8-row poll slice ran before the cancel");
        assert_eq!(rec.report().counter(stage::BUDGET_POLLS), 2, "poll, run, poll, stop");
    }

    #[test]
    fn budgeted_panics_are_contained_and_counted() {
        let budget = Budget::unlimited().with_cancel_token(CancelToken::new());
        let rec = Recorder::enabled();
        let mut v = vec![0u8; 4 * 8];
        let err = try_par_rows(&mut v, 4, 2, &rec, &budget, &ChaosInjector::disabled(),
            |row0, _| {
                if row0 >= 4 {
                    panic!("upper band down");
                }
            })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WorkerPanicked);
        assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 1);
    }

    #[test]
    fn chaos_error_fault_fires_at_the_exact_slice_index() {
        // Serial: 64 rows in one band, 8-row poll slices → 8 ParBandSlice
        // visits. A fault at index 3 lets exactly three slices run.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(11).with_fault(FaultSite::ParBandSlice, FaultKind::Error, 3),
        );
        let mut v = vec![0u64; 4 * 64];
        let err = try_par_rows(&mut v, 4, 1, &Recorder::disabled(), &Budget::unlimited(), &chaos,
            |_, band| band.iter_mut().for_each(|x| *x = 1))
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::FaultInjected);
        assert!(err.to_string().contains("par_band_slice[3]"), "{err}");
        assert_eq!(v.iter().sum::<u64>(), 4 * 8 * 3, "exactly three slices written");
        assert_eq!(chaos.visits(FaultSite::ParBandSlice), 4, "three clean polls + the fault");
    }

    #[test]
    fn chaos_panic_fault_is_contained_and_counted() {
        for workers in [1usize, 3] {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(13).with_fault(FaultSite::ParBandSlice, FaultKind::Panic, 0),
            );
            let rec = Recorder::enabled();
            let mut v = vec![0u64; 4 * 9];
            let err = try_par_rows(&mut v, 4, workers, &rec, &Budget::unlimited(), &chaos,
                |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::WorkerPanicked, "workers={workers}");
            assert!(err.to_string().contains("chaos: injected panic"), "{err}");
            assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 1);
            assert_eq!(chaos.injected(), 1);
        }
    }

    #[test]
    fn chaos_cancel_and_deadline_faults_surface_typed() {
        for (kind, want) in [
            (FaultKind::Cancel, ErrorKind::Cancelled),
            (FaultKind::Deadline, ErrorKind::DeadlineExceeded),
        ] {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(17).with_fault(FaultSite::ParBandSlice, kind, 0),
            );
            let mut v = vec![0u8; 4 * 8];
            let err = try_par_rows(&mut v, 4, 2, &Recorder::disabled(), &Budget::unlimited(),
                &chaos, |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), want, "{kind:?}");
        }
    }

    #[test]
    fn ranges_cover_every_index_once_and_report_the_lowest_failed_band() {
        for workers in [1usize, 2, 5] {
            let seen: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            let rec = Recorder::enabled();
            try_par_bands(split_range(23, workers), &rec, |_, (a, b)| {
                (a..b).for_each(|i| {
                    seen[i].fetch_add(1, Ordering::SeqCst);
                });
                Ok(())
            })
            .unwrap();
            assert!(seen.iter().all(|n| n.load(Ordering::SeqCst) == 1), "workers={workers}");
            assert_eq!(rec.report().counter(stage::PAR_BANDS), workers as u64);
        }
        let rec = Recorder::enabled();
        let err = try_par_bands(split_range(8, 4), &rec, |_, (a, b)| {
            if a >= 4 {
                panic!("range {a}..{b} down");
            }
            if a >= 2 {
                return Err(RrsError::invalid_param("r", "typed failure"));
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidParam, "band 1's error precedes the panics");
        assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 2);
    }
}
