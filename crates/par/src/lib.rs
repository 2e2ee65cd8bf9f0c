//! Minimal data-parallel substrate built on `std::thread::scope`.
//!
//! The workspace's hot loops (2-D FFT rows, convolution output rows) are
//! embarrassingly parallel over disjoint row bands. Rather than pull in a
//! full work-stealing runtime, this crate provides the two primitives those
//! loops need, in the style of rayon's chunked iterators but with a fixed,
//! caller-controllable worker count so generation remains deterministic:
//!
//! * [`par_chunks_mut`] — split a mutable slice into contiguous chunks and
//!   process each on its own scoped thread;
//! * [`par_indexed_chunks_mut`] — the same, handing each closure the chunk's
//!   starting element index (for row numbering / per-band RNG streams).
//!
//! Determinism note: all primitives partition work *statically*; outputs
//! never depend on scheduling, only on the partition, which itself depends
//! only on `(len, workers)`.
//!
//! # Panic containment
//!
//! The plain primitives propagate worker panics (the scope re-raises the
//! first one at join). Production callers that must not die with a worker
//! use the fallible forms instead:
//!
//! * [`try_par_chunks_mut`] / [`try_par_row_chunks_mut`] — run every band
//!   under `catch_unwind` and report the lowest-indexed failed band as a
//!   structured [`RrsError::WorkerPanicked`] carrying the panic payload;
//! * [`par_row_chunks_mut_with_fallback`] — additionally retries the whole
//!   partition *serially* after a parallel-band panic. The retry visits
//!   the same static bands in order, so a successful retry is bit-exactly
//!   the surface an all-parallel (or all-serial) run would have produced.
//!
//! # Observability
//!
//! The row-band primitives have `_observed` twins taking an
//! [`rrs_obs::Recorder`]: bands executed, worker panics and serial
//! fallbacks are reported as `par/*` counters. With a
//! [`Recorder::disabled`] recorder the twins are the plain primitives —
//! no clock reads, no locks.

#![warn(missing_docs)]

use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, RrsError};
use rrs_obs::{stage, ObsSink, Recorder};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use std::thread::Scope;

/// Runs `f` inside a `std::thread::scope`, propagating panics from worker
/// threads as a panic on the caller (the scope joins every spawned thread
/// before returning and re-raises the first panic it observed).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    std::thread::scope(f)
}

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

/// Splits `data` into at most `workers` contiguous chunks of near-equal
/// length and runs `f` on each chunk, in parallel.
///
/// `f` receives `(chunk_index, chunk)`. With `workers <= 1` or a single
/// chunk the call degrades to a plain loop on the caller's thread.
pub fn par_chunks_mut<T, F>(data: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let workers = workers.max(1).min(n);
    let chunk = n.div_ceil(workers);
    if workers == 1 {
        f(0, data);
        return;
    }
    scope(|s| {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(i, c));
        }
    });
}

/// Like [`par_chunks_mut`] but hands each closure the *element offset* of
/// its chunk within the original slice, so callers can recover global row
/// indices: `f(start_index, chunk)`.
pub fn par_indexed_chunks_mut<T, F>(data: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let workers = workers.max(1).min(n);
    let chunk = n.div_ceil(workers);
    if workers == 1 {
        f(0, data);
        return;
    }
    scope(|s| {
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            let start = i * chunk;
            s.spawn(move || f(start, c));
        }
    });
}

/// The static row partition shared by every row-band primitive (parallel
/// dispatch, budget slicing, serial retry): `min(workers, rows)` bands of
/// *near-equal* height — sizes differ by at most one row. The previous
/// ceiling-division banding could strand workers entirely (9 rows on 8
/// workers made five 2-row bands and left three workers idle); the
/// balanced split keeps every worker busy and bounds the straggler band
/// at one extra row. Band boundaries depend only on `(rows, workers)`,
/// preserving the static-partition determinism contract.
fn row_bands(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    split_range(rows, workers.max(1).min(rows))
}

/// Splits a row-major `row_len`-wide buffer into balanced bands of whole
/// rows and processes each band on its own thread:
/// `f(first_row_index, band)`.
///
/// Guarantees a row is never split across workers — the invariant the 2-D
/// kernels rely on.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `row_len`.
pub fn par_row_chunks_mut<T, F>(data: &mut [T], row_len: usize, workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(data.len() % row_len, 0, "buffer is not whole rows");
    let rows = data.len() / row_len;
    if rows == 0 {
        return;
    }
    let bands = row_bands(rows, workers);
    if bands.len() == 1 {
        f(0, data);
        return;
    }
    scope(|s| {
        let mut rest = data;
        for &(r0, r1) in &bands {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
            rest = tail;
            let f = &f;
            s.spawn(move || f(r0, band));
        }
    });
}

/// Runs `f(band, chunk)` under `catch_unwind`, mapping a panic to a
/// structured [`RrsError::WorkerPanicked`] naming the band.
fn run_caught<T, F>(band: usize, chunk: &mut [T], f: &F) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    catch_unwind(AssertUnwindSafe(|| f(band, chunk)))
        .map_err(|p| RrsError::worker_panicked(band, p.as_ref()))
}

/// [`run_caught`] for fallible closures: a panic maps to
/// [`RrsError::WorkerPanicked`], an `Err` passes through unchanged.
fn run_caught_fallible<T, F>(band: usize, chunk: &mut [T], f: &F) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) -> Result<(), RrsError> + Sync,
{
    catch_unwind(AssertUnwindSafe(|| f(band, chunk)))
        .unwrap_or_else(|p| Err(RrsError::worker_panicked(band, p.as_ref())))
}

/// Panic-contained [`par_chunks_mut`]: every chunk closure runs under
/// `catch_unwind`; if any panics, the lowest-indexed failed band is
/// reported as [`RrsError::WorkerPanicked`] with its payload. All bands
/// still run to completion (or their own panic) before the call returns,
/// so the slice is never left with a band silently skipped.
pub fn try_par_chunks_mut<T, F>(data: &mut [T], workers: usize, f: F) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return Ok(());
    }
    let workers = workers.max(1).min(n);
    let chunk = n.div_ceil(workers);
    if workers == 1 {
        return run_caught(0, data, &f);
    }
    let mut first: Option<RrsError> = None;
    scope(|s| {
        let handles: Vec<_> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, c)| {
                let f = &f;
                s.spawn(move || run_caught(i, c, f))
            })
            .collect();
        // Handles join in band order, so the first error seen is the
        // lowest-indexed failed band.
        for h in handles {
            let r = h.join().expect("worker closures are panic-contained");
            if let (Err(e), None) = (r, first.as_ref()) {
                first = Some(e);
            }
        }
    });
    first.map_or(Ok(()), Err)
}

/// Panic-contained [`par_row_chunks_mut`]: validates the row geometry as a
/// [`RrsError::ShapeMismatch`] instead of panicking, and reports a
/// panicking band closure as [`RrsError::WorkerPanicked`].
pub fn try_par_row_chunks_mut<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    f: F,
) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    try_par_row_chunks_mut_observed(data, row_len, workers, &Recorder::disabled(), f)
}

/// [`try_par_row_chunks_mut`] with execution events reported to `obs`:
/// every band that runs increments [`stage::PAR_BANDS`] and every band
/// whose closure panics increments [`stage::PAR_WORKER_PANICS`] (the
/// returned error still names only the lowest-indexed failure). A
/// [`Recorder::disabled`] recorder makes this identical to the plain
/// form.
pub fn try_par_row_chunks_mut_observed<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    obs: &Recorder,
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
    let band_ranges = row_bands(rows, workers);
    if band_ranges.len() == 1 {
        obs.add_counter(stage::PAR_BANDS, 1);
        return run_caught(0, data, &f).map_err(rename_band_to_row(0)).inspect_err(|_| {
            obs.add_counter(stage::PAR_WORKER_PANICS, 1);
        });
    }
    let mut first: Option<RrsError> = None;
    let mut bands = 0u64;
    let mut panics = 0u64;
    scope(|s| {
        let mut rest = data;
        let handles: Vec<_> = band_ranges
            .iter()
            .enumerate()
            .map(|(i, &(r0, r1))| {
                let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
                rest = tail;
                let f = &f;
                s.spawn(move || run_caught(r0, band, f).map_err(rename_band_to_row(i)))
            })
            .collect();
        for h in handles {
            bands += 1;
            let r = h.join().expect("worker closures are panic-contained");
            if let Err(e) = r {
                panics += 1;
                if first.is_none() {
                    first = Some(e);
                }
            }
        }
    });
    obs.add_counter(stage::PAR_BANDS, bands);
    if panics > 0 {
        obs.add_counter(stage::PAR_WORKER_PANICS, panics);
    }
    first.map_or(Ok(()), Err)
}

/// Poll slices per worker band in budgeted mode: each worker checks its
/// [`Budget`] this many times across its band, so a mid-run cancel or an
/// expired deadline stops the worker within `rows_per_band / 8` rows of
/// work instead of only between bands.
const BUDGET_POLL_SLICES: usize = 8;

/// [`try_par_row_chunks_mut_observed`] with cooperative budget polling.
///
/// With a budget that needs no polling (no deadline, no cancel token —
/// including [`Budget::unlimited`]) this *is*
/// [`try_par_row_chunks_mut_observed`]: the delegation happens before any
/// budget machinery runs, so the unbudgeted hot path is unchanged (the
/// `bench_runtime` gate enforces this).
///
/// With a deadline or cancel token present, each worker splits its band
/// into up to [`BUDGET_POLL_SLICES`] whole-row slices and polls
/// [`Budget::check`] before each slice (every poll counts one
/// [`stage::BUDGET_POLLS`]). A tripped budget surfaces as
/// [`RrsError::Cancelled`] / [`RrsError::DeadlineExceeded`] from the
/// lowest-indexed affected band; slices after the trip do not run.
///
/// # Determinism contract
///
/// `f` must be *row-decomposable*: running it over any partition of the
/// same whole rows must produce the same bytes. This is the same contract
/// the serial-fallback retry already relies on (every workspace band
/// closure computes each row purely from its global row index), and it is
/// what makes an untripped budgeted run bit-identical to an unbudgeted
/// one even though `f` is invoked once per slice rather than once per
/// band.
pub fn try_par_row_chunks_mut_budgeted<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    obs: &Recorder,
    budget: &Budget,
    f: F,
) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if !budget.needs_polling() {
        return try_par_row_chunks_mut_observed(data, row_len, workers, obs, f);
    }
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
    let band_ranges = row_bands(rows, workers);
    // Poll cadence derived from the tallest band, so every band polls at
    // most BUDGET_POLL_SLICES times regardless of the balanced split.
    let max_band_rows = band_ranges.iter().map(|&(a, b)| b - a).max().unwrap_or(rows);
    let poll_rows = max_band_rows.div_ceil(BUDGET_POLL_SLICES).max(1);

    // Runs one worker band slice by slice, polling the budget before each
    // slice. Returns the polls taken alongside the outcome so the caller
    // can merge counters after the join.
    let run_band = |band: usize, band_start_row: usize, band_data: &mut [T]| {
        let mut polls = 0u64;
        let mut row = 0usize;
        for slice in band_data.chunks_mut(poll_rows * row_len) {
            polls += 1;
            if let Err(e) = budget.check() {
                return (polls, Err(e));
            }
            if let Err(e) =
                run_caught(band_start_row + row, slice, &f).map_err(rename_band_to_row(band))
            {
                return (polls, Err(e));
            }
            row += slice.len() / row_len;
        }
        (polls, Ok(()))
    };

    if band_ranges.len() == 1 {
        obs.add_counter(stage::PAR_BANDS, 1);
        let (polls, result) = run_band(0, 0, data);
        obs.add_counter(stage::BUDGET_POLLS, polls);
        return result.inspect_err(|e| {
            if e.kind() == rrs_error::ErrorKind::WorkerPanicked {
                obs.add_counter(stage::PAR_WORKER_PANICS, 1);
            }
        });
    }
    let mut first: Option<RrsError> = None;
    let mut bands = 0u64;
    let mut panics = 0u64;
    let mut polls = 0u64;
    scope(|s| {
        let mut rest = data;
        let handles: Vec<_> = band_ranges
            .iter()
            .enumerate()
            .map(|(i, &(r0, r1))| {
                let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
                rest = tail;
                let run_band = &run_band;
                s.spawn(move || run_band(i, r0, band))
            })
            .collect();
        for h in handles {
            bands += 1;
            let (band_polls, r) = h.join().expect("worker closures are panic-contained");
            polls += band_polls;
            if let Err(e) = r {
                if e.kind() == rrs_error::ErrorKind::WorkerPanicked {
                    panics += 1;
                }
                if first.is_none() {
                    first = Some(e);
                }
            }
        }
    });
    obs.add_counter(stage::PAR_BANDS, bands);
    obs.add_counter(stage::BUDGET_POLLS, polls);
    if panics > 0 {
        obs.add_counter(stage::PAR_WORKER_PANICS, panics);
    }
    first.map_or(Ok(()), Err)
}

/// [`try_par_row_chunks_mut_budgeted`] with deterministic fault
/// injection: with an armed [`ChaosInjector`], every band slice polls
/// [`FaultSite::ParBandSlice`] *inside* the band's panic containment, so
/// an injected panic, error, cancellation or deadline expiry surfaces as
/// a typed [`RrsError`] from the lowest-indexed affected band — exactly
/// the containment path a real worker panic takes.
///
/// With a disabled injector this *is* [`try_par_row_chunks_mut_budgeted`]
/// (which in turn delegates to the pre-budget primitive when the budget
/// needs no polling): the delegation happens before any chaos machinery
/// runs, so the chaos-off hot path costs one `Option` discriminant test
/// (the `bench_runtime` gate holds it under 1.05x).
pub fn try_par_row_chunks_mut_chaos<T, F>(
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
    if !chaos.is_enabled() {
        return try_par_row_chunks_mut_budgeted(data, row_len, workers, obs, budget, f);
    }
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
    let band_ranges = row_bands(rows, workers);
    let max_band_rows = band_ranges.iter().map(|&(a, b)| b - a).max().unwrap_or(rows);
    let poll_rows = max_band_rows.div_ceil(BUDGET_POLL_SLICES).max(1);
    let polling = budget.needs_polling();

    // One band, slice by slice: budget poll (when armed) outside the
    // containment, chaos poll + the band closure inside it, so injected
    // panics are caught exactly where real worker panics are.
    let run_band = |band: usize, band_start_row: usize, band_data: &mut [T]| {
        let mut polls = 0u64;
        let mut row = 0usize;
        for slice in band_data.chunks_mut(poll_rows * row_len) {
            if polling {
                polls += 1;
                if let Err(e) = budget.check() {
                    return (polls, Err(e));
                }
            }
            let r = run_caught_fallible(band_start_row + row, slice, &|r, s: &mut [T]| {
                chaos.poll(FaultSite::ParBandSlice)?;
                f(r, s);
                Ok(())
            })
            .map_err(rename_band_to_row(band));
            if let Err(e) = r {
                return (polls, Err(e));
            }
            row += slice.len() / row_len;
        }
        (polls, Ok(()))
    };

    if band_ranges.len() == 1 {
        obs.add_counter(stage::PAR_BANDS, 1);
        let (polls, result) = run_band(0, 0, data);
        if polls > 0 {
            obs.add_counter(stage::BUDGET_POLLS, polls);
        }
        return result.inspect_err(|e| {
            if e.kind() == rrs_error::ErrorKind::WorkerPanicked {
                obs.add_counter(stage::PAR_WORKER_PANICS, 1);
            }
        });
    }
    let mut first: Option<RrsError> = None;
    let mut bands = 0u64;
    let mut panics = 0u64;
    let mut polls = 0u64;
    scope(|s| {
        let mut rest = data;
        let handles: Vec<_> = band_ranges
            .iter()
            .enumerate()
            .map(|(i, &(r0, r1))| {
                let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * row_len);
                rest = tail;
                let run_band = &run_band;
                s.spawn(move || run_band(i, r0, band))
            })
            .collect();
        for h in handles {
            bands += 1;
            let (band_polls, r) = h.join().expect("worker closures are panic-contained");
            polls += band_polls;
            if let Err(e) = r {
                if e.kind() == rrs_error::ErrorKind::WorkerPanicked {
                    panics += 1;
                }
                if first.is_none() {
                    first = Some(e);
                }
            }
        }
    });
    obs.add_counter(stage::PAR_BANDS, bands);
    if polls > 0 {
        obs.add_counter(stage::BUDGET_POLLS, polls);
    }
    if panics > 0 {
        obs.add_counter(stage::PAR_WORKER_PANICS, panics);
    }
    first.map_or(Ok(()), Err)
}

/// `run_caught` reports the chunk's *starting row* as the band (that is
/// what the closure receives); re-tag with the band ordinal, which is the
/// stable name across worker counts of the retry path.
fn rename_band_to_row(band: usize) -> impl Fn(RrsError) -> RrsError {
    move |e| match e {
        RrsError::WorkerPanicked { payload, .. } => RrsError::WorkerPanicked { band, payload },
        other => other,
    }
}

/// [`try_par_row_chunks_mut`] with an opt-in serial retry: if any parallel
/// band panics, the same static partition is re-run serially, band by
/// band, on the caller's thread.
///
/// Because the partition is identical and every band closure is required
/// to be a pure function of `(start_row, band)` (the workspace's
/// determinism contract), a successful retry leaves `data` bit-identical
/// to what an uninterrupted parallel run would have produced — a band
/// that panicked halfway through is simply overwritten in full. If the
/// serial retry panics too, the error names that band and carries both
/// payloads' context.
pub fn par_row_chunks_mut_with_fallback<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    f: F,
) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_row_chunks_mut_with_fallback_observed(data, row_len, workers, &Recorder::disabled(), f)
}

/// [`par_row_chunks_mut_with_fallback`] with execution events reported to
/// `obs`: band and panic counters as in
/// [`try_par_row_chunks_mut_observed`], plus one
/// [`stage::PAR_SERIAL_FALLBACKS`] tick each time a parallel panic
/// triggers the serial retry.
pub fn par_row_chunks_mut_with_fallback_observed<T, F>(
    data: &mut [T],
    row_len: usize,
    workers: usize,
    obs: &Recorder,
    f: F,
) -> Result<(), RrsError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    match try_par_row_chunks_mut_observed(data, row_len, workers, obs, &f) {
        Ok(()) => Ok(()),
        Err(RrsError::WorkerPanicked { band: failed, .. }) => {
            obs.add_counter(stage::PAR_SERIAL_FALLBACKS, 1);
            // Serial retry over the identical static partition.
            let rows = data.len() / row_len;
            for (i, &(r0, r1)) in row_bands(rows, workers).iter().enumerate() {
                let band = &mut data[r0 * row_len..r1 * row_len];
                run_caught(r0, band, &f).map_err(|e| {
                    rename_band_to_row(i)(e)
                        .with_context(format!("serial retry after parallel band {failed} panicked"))
                })?;
            }
            Ok(())
        }
        Err(other) => Err(other),
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_chunks_mut_touches_every_element() {
        let mut v = vec![0u64; 1003];
        par_chunks_mut(&mut v, 7, |_, c| {
            for x in c {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn par_chunks_mut_empty_and_single() {
        let mut empty: Vec<u8> = vec![];
        par_chunks_mut(&mut empty, 4, |_, _| panic!("must not run"));
        let mut one = vec![5];
        par_chunks_mut(&mut one, 4, |i, c| {
            assert_eq!(i, 0);
            c[0] = 6;
        });
        assert_eq!(one, [6]);
    }

    #[test]
    fn indexed_chunks_get_correct_offsets() {
        let n = 100;
        let mut v: Vec<usize> = vec![0; n];
        par_indexed_chunks_mut(&mut v, 3, |start, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = start + j;
            }
        });
        let expect: Vec<usize> = (0..n).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn all_workers_used_for_large_input() {
        let seen = AtomicUsize::new(0);
        let mut v = vec![0u8; 64];
        par_chunks_mut(&mut v, 4, |_, _| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 4);
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
        par_row_chunks_mut(&mut v, nx, 4, |row0, band| {
            assert_eq!(band.len() % nx, 0, "band must be whole rows");
            for (i, x) in band.iter_mut().enumerate() {
                *x = (row0 * nx) + i;
            }
        });
        let expect: Vec<usize> = (0..nx * ny).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn row_chunks_single_worker_and_empty() {
        let mut v = vec![1u8; 12];
        par_row_chunks_mut(&mut v, 4, 1, |row0, band| {
            assert_eq!(row0, 0);
            assert_eq!(band.len(), 12);
        });
        let mut empty: Vec<u8> = vec![];
        par_row_chunks_mut(&mut empty, 4, 3, |_, _| panic!("must not run"));
    }

    #[test]
    fn row_chunks_more_workers_than_rows() {
        let nx = 5;
        let mut v = vec![0u8; nx * 2];
        par_row_chunks_mut(&mut v, nx, 64, |_, band| {
            for x in band {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn row_chunks_ragged_buffer_panics() {
        let mut v = vec![0u8; 10];
        par_row_chunks_mut(&mut v, 3, 2, |_, _| {});
    }

    #[test]
    fn try_chunks_ok_path_matches_plain() {
        let mut a = vec![0u64; 503];
        let mut b = vec![0u64; 503];
        par_chunks_mut(&mut a, 4, |i, c| c.iter_mut().for_each(|x| *x = i as u64 + 1));
        try_par_chunks_mut(&mut b, 4, |i, c| c.iter_mut().for_each(|x| *x = i as u64 + 1))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn try_chunks_reports_lowest_failed_band() {
        let mut v = vec![0u8; 64];
        let err = try_par_chunks_mut(&mut v, 4, |i, _| {
            if i >= 1 {
                panic!("band {i} exploded");
            }
        })
        .unwrap_err();
        match err {
            rrs_error::RrsError::WorkerPanicked { band, payload } => {
                assert_eq!(band, 1, "lowest failed band wins");
                assert!(payload.contains("exploded"));
            }
            other => panic!("wrong variant: {other}"),
        }
    }

    #[test]
    fn try_row_chunks_validates_geometry_without_panicking() {
        let mut v = vec![0u8; 10];
        let err = try_par_row_chunks_mut(&mut v, 3, 2, |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::ShapeMismatch);
        assert!(err.to_string().contains("whole rows"));
        let err = try_par_row_chunks_mut(&mut v, 0, 2, |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::InvalidParam);
    }

    #[test]
    fn try_row_chunks_names_failed_band_serial_and_parallel() {
        for workers in [1usize, 3] {
            let nx = 4;
            let mut v = vec![0u8; nx * 9];
            let err = try_par_row_chunks_mut(&mut v, nx, workers, |row0, _| {
                if row0 == 0 {
                    panic!("first band down");
                }
            })
            .unwrap_err();
            match err {
                rrs_error::RrsError::WorkerPanicked { band, payload } => {
                    assert_eq!(band, 0);
                    assert!(payload.contains("first band down"));
                }
                other => panic!("workers={workers}: wrong variant {other}"),
            }
        }
    }

    #[test]
    fn fallback_retry_is_bit_exact_after_transient_panic() {
        use std::sync::atomic::AtomicBool;
        let nx = 7;
        let ny = 23;
        let fill = |row0: usize, band: &mut [u64]| {
            for (j, x) in band.iter_mut().enumerate() {
                *x = (row0 * nx + j) as u64 * 3 + 1;
            }
        };
        // Reference: plain serial run.
        let mut want = vec![0u64; nx * ny];
        par_row_chunks_mut(&mut want, nx, 1, |r, b| fill(r, b));
        // Faulty run: band 2 dies once (parallel attempt), then succeeds
        // on the serial retry.
        let tripped = AtomicBool::new(false);
        let mut got = vec![0u64; nx * ny];
        par_row_chunks_mut_with_fallback(&mut got, nx, 4, |row0, band| {
            let rows_per_band = ny.div_ceil(4);
            if row0 / rows_per_band == 2 && !tripped.swap(true, Ordering::SeqCst) {
                // Poison half the band before dying, to prove the retry
                // overwrites partial output.
                band[0] = u64::MAX;
                panic!("transient fault");
            }
            fill(row0, band);
        })
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn fallback_surfaces_persistent_panics() {
        let mut v = vec![0u8; 12];
        let err = par_row_chunks_mut_with_fallback(&mut v, 4, 3, |row0, _| {
            if row0 == 2 {
                panic!("permanent fault");
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::WorkerPanicked);
        let msg = err.to_string();
        assert!(msg.contains("serial retry"), "{msg}");
        assert!(msg.contains("permanent fault"), "{msg}");
    }

    #[test]
    fn row_bands_are_balanced_and_use_all_workers() {
        // 9 rows on 8 workers used to produce five ceil-height bands and
        // leave three workers idle; the balanced split hands every worker
        // a band and bounds the height spread at one row.
        let nx = 3;
        let rec = Recorder::enabled();
        let heights = std::sync::Mutex::new(Vec::new());
        let mut v = vec![0u8; nx * 9];
        try_par_row_chunks_mut_observed(&mut v, nx, 8, &rec, |_, band| {
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
        // Rebalancing moves band boundaries; row-decomposable closures
        // must still produce byte-identical output at every worker count.
        let nx = 5;
        let fill = |r0: usize, band: &mut [u64]| {
            for (j, x) in band.iter_mut().enumerate() {
                *x = ((r0 * nx + j) as u64).wrapping_mul(0x9E3779B97F4A7C15);
            }
        };
        let mut want = vec![0u64; nx * 31];
        par_row_chunks_mut(&mut want, nx, 1, fill);
        for workers in [2usize, 3, 7, 8, 31, 64] {
            let mut got = vec![0u64; nx * 31];
            par_row_chunks_mut(&mut got, nx, workers, fill);
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn observed_counters_track_bands_and_panics() {
        let rec = Recorder::enabled();
        let nx = 4;
        let mut v = vec![0u8; nx * 8];
        try_par_row_chunks_mut_observed(&mut v, nx, 4, &rec, |_, _| {}).unwrap();
        assert_eq!(rec.report().counter(stage::PAR_BANDS), 4);
        assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 0);

        let err = try_par_row_chunks_mut_observed(&mut v, nx, 4, &rec, |row0, _| {
            if row0 >= 4 {
                panic!("upper bands down");
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::WorkerPanicked);
        let report = rec.report();
        assert_eq!(report.counter(stage::PAR_BANDS), 8);
        assert_eq!(report.counter(stage::PAR_WORKER_PANICS), 2, "both failed bands counted");
    }

    #[test]
    fn observed_fallback_counts_serial_retries() {
        use std::sync::atomic::AtomicBool;
        let rec = Recorder::enabled();
        let tripped = AtomicBool::new(false);
        let mut v = vec![0u64; 12];
        par_row_chunks_mut_with_fallback_observed(&mut v, 4, 3, &rec, |row0, band| {
            if row0 == 1 && !tripped.swap(true, Ordering::SeqCst) {
                panic!("transient");
            }
            band.iter_mut().for_each(|x| *x = row0 as u64);
        })
        .unwrap();
        let report = rec.report();
        assert_eq!(report.counter(stage::PAR_SERIAL_FALLBACKS), 1);
        assert_eq!(report.counter(stage::PAR_WORKER_PANICS), 1);
        // 3 parallel bands + 3 serial retry bands.
        assert_eq!(report.counter(stage::PAR_BANDS), 3);
    }

    #[test]
    fn disabled_recorder_matches_plain_primitives() {
        let mut a = vec![0u32; 60];
        let mut b = vec![0u32; 60];
        try_par_row_chunks_mut(&mut a, 6, 3, |r, band| {
            band.iter_mut().enumerate().for_each(|(i, x)| *x = (r * 6 + i) as u32)
        })
        .unwrap();
        try_par_row_chunks_mut_observed(&mut b, 6, 3, &Recorder::disabled(), |r, band| {
            band.iter_mut().enumerate().for_each(|(i, x)| *x = (r * 6 + i) as u32)
        })
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn budgeted_unlimited_is_bit_identical_to_observed() {
        use rrs_error::Budget;
        let fill = |r: usize, band: &mut [u64]| {
            band.iter_mut().enumerate().for_each(|(i, x)| *x = (r * 6 + i) as u64 * 7 + 3)
        };
        for workers in [1usize, 3, 8] {
            let mut a = vec![0u64; 6 * 17];
            let mut b = vec![0u64; 6 * 17];
            try_par_row_chunks_mut_observed(&mut a, 6, workers, &Recorder::disabled(), fill)
                .unwrap();
            try_par_row_chunks_mut_budgeted(
                &mut b,
                6,
                workers,
                &Recorder::disabled(),
                &Budget::unlimited(),
                fill,
            )
            .unwrap();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn budgeted_armed_idle_is_bit_identical_and_polls() {
        use rrs_error::{Budget, CancelToken};
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
            try_par_row_chunks_mut_observed(&mut a, 5, workers, &Recorder::disabled(), fill)
                .unwrap();
            try_par_row_chunks_mut_budgeted(&mut b, 5, workers, &rec, &budget, fill).unwrap();
            assert_eq!(a, b, "workers={workers}");
            let report = rec.report();
            assert_eq!(report.counter(stage::PAR_BANDS), workers as u64);
            assert!(
                report.counter(stage::BUDGET_POLLS) >= workers as u64,
                "each band polls at least once"
            );
        }
    }

    #[test]
    fn budgeted_pre_cancelled_leaves_data_untouched() {
        use rrs_error::{Budget, CancelToken};
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        for workers in [1usize, 4] {
            let mut v = vec![9u64; 6 * 16];
            let err = try_par_row_chunks_mut_budgeted(&mut v, 6, workers, &Recorder::disabled(),
                &budget, |_, band| band.iter_mut().for_each(|x| *x = 0))
            .unwrap_err();
            assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
            assert!(v.iter().all(|&x| x == 9), "no slice ran after a pre-tripped poll");
        }
    }

    #[test]
    fn budgeted_past_deadline_is_deadline_exceeded() {
        use rrs_error::Budget;
        let budget = Budget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_secs(1));
        for workers in [1usize, 3] {
            let mut v = vec![1u8; 4 * 8];
            let err = try_par_row_chunks_mut_budgeted(&mut v, 4, workers, &Recorder::disabled(),
                &budget, |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), rrs_error::ErrorKind::DeadlineExceeded, "workers={workers}");
        }
    }

    #[test]
    fn budgeted_mid_run_cancel_stops_between_slices() {
        use rrs_error::{Budget, CancelToken};
        // Serial (workers=1) so slice order is deterministic: the closure
        // trips the token while processing the first slice; the poll before
        // the second slice must observe it and stop.
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel_token(token.clone());
        let rec = Recorder::enabled();
        let mut v = vec![0u64; 4 * 64]; // 64 rows, 1 band, 8-row poll slices
        let err = try_par_row_chunks_mut_budgeted(&mut v, 4, 1, &rec, &budget, |row0, band| {
            band.iter_mut().for_each(|x| *x = 1);
            if row0 == 0 {
                token.cancel();
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::Cancelled);
        let written: u64 = v.iter().sum();
        assert_eq!(written, 4 * 8, "exactly one 8-row poll slice ran before the cancel");
        assert_eq!(rec.report().counter(stage::BUDGET_POLLS), 2, "poll, run, poll, stop");
    }

    #[test]
    fn budgeted_validates_geometry_and_contains_panics() {
        use rrs_error::{Budget, CancelToken};
        let budget = Budget::unlimited().with_cancel_token(CancelToken::new());
        let mut v = vec![0u8; 10];
        let err = try_par_row_chunks_mut_budgeted(&mut v, 3, 2, &Recorder::disabled(), &budget,
            |_, _| {})
        .unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::ShapeMismatch);

        let rec = Recorder::enabled();
        let mut v = vec![0u8; 4 * 8];
        let err = try_par_row_chunks_mut_budgeted(&mut v, 4, 2, &rec, &budget, |row0, _| {
            if row0 >= 4 {
                panic!("upper band down");
            }
        })
        .unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::WorkerPanicked);
        assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 1);
    }

    #[test]
    fn scope_propagates_results() {
        let data = [1, 2, 3];
        let sum = scope(|s| {
            let h = s.spawn(|| data.iter().sum::<i32>());
            h.join().unwrap()
        });
        assert_eq!(sum, 6);
    }

    #[test]
    fn chaos_disabled_is_bit_identical_to_budgeted() {
        use rrs_error::Budget;
        let fill = |row0: usize, band: &mut [u64]| {
            for (j, x) in band.iter_mut().enumerate() {
                *x = (row0 as u64) << 32 | j as u64;
            }
        };
        for workers in [1usize, 3] {
            let mut want = vec![0u64; 4 * 9];
            try_par_row_chunks_mut_budgeted(&mut want, 4, workers, &Recorder::disabled(),
                &Budget::unlimited(), |r, b| fill(r, b))
            .unwrap();
            let mut got = vec![0u64; 4 * 9];
            try_par_row_chunks_mut_chaos(&mut got, 4, workers, &Recorder::disabled(),
                &Budget::unlimited(), &rrs_chaos::ChaosInjector::disabled(), |r, b| fill(r, b))
            .unwrap();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn chaos_error_fault_fires_at_the_exact_slice_index() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule};
        use rrs_error::Budget;
        // Serial: 64 rows in one band, 8-row poll slices → 8 ParBandSlice
        // visits. A fault at index 3 lets exactly three slices run.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(11).with_fault(FaultSite::ParBandSlice, FaultKind::Error, 3),
        );
        let mut v = vec![0u64; 4 * 64];
        let err = try_par_row_chunks_mut_chaos(&mut v, 4, 1, &Recorder::disabled(),
            &Budget::unlimited(), &chaos, |_, band| band.iter_mut().for_each(|x| *x = 1))
        .unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::FaultInjected);
        assert!(err.to_string().contains("par_band_slice[3]"), "{err}");
        assert_eq!(v.iter().sum::<u64>(), 4 * 8 * 3, "exactly three slices written");
        assert_eq!(chaos.visits(FaultSite::ParBandSlice), 4, "three clean polls + the fault");
    }

    #[test]
    fn chaos_panic_fault_is_contained_and_counted() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule};
        use rrs_error::Budget;
        for workers in [1usize, 3] {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(13).with_fault(FaultSite::ParBandSlice, FaultKind::Panic, 0),
            );
            let rec = Recorder::enabled();
            let mut v = vec![0u64; 4 * 9];
            let err = try_par_row_chunks_mut_chaos(&mut v, 4, workers, &rec,
                &Budget::unlimited(), &chaos, |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), rrs_error::ErrorKind::WorkerPanicked, "workers={workers}");
            assert!(err.to_string().contains("chaos: injected panic"), "{err}");
            assert_eq!(rec.report().counter(stage::PAR_WORKER_PANICS), 1);
            assert_eq!(chaos.injected(), 1);
        }
    }

    #[test]
    fn chaos_cancel_and_deadline_faults_surface_typed() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule};
        use rrs_error::Budget;
        for (kind, want) in [
            (FaultKind::Cancel, rrs_error::ErrorKind::Cancelled),
            (FaultKind::Deadline, rrs_error::ErrorKind::DeadlineExceeded),
        ] {
            let chaos = ChaosInjector::new(
                FaultSchedule::new(17).with_fault(FaultSite::ParBandSlice, kind, 0),
            );
            let mut v = vec![0u8; 4 * 8];
            let err = try_par_row_chunks_mut_chaos(&mut v, 4, 2, &Recorder::disabled(),
                &Budget::unlimited(), &chaos, |_, _| {})
            .unwrap_err();
            assert_eq!(err.kind(), want, "{kind:?}");
        }
    }
}
