//! Stage-level observability for the rrs pipeline.
//!
//! The generation pipeline (kernel construction, noise-window
//! materialisation, correlation, checkpointing) reports *where* time goes
//! through this crate:
//!
//! * [`Span`] — a monotonic [`std::time::Instant`] timer with **explicit**
//!   start/stop ([`Recorder::start`] / [`Recorder::finish`]); no global
//!   clock reads hide inside hot loops;
//! * named **counters** and power-of-two **duration histograms**
//!   ([`hist::DurationHist`]);
//! * [`Recorder`] — the thread-safe sink for both: workers accumulate into
//!   private [`Shard`]s (no locks, no atomics in the loop) and merge them
//!   with one [`Recorder::absorb`] per band;
//! * [`report::ObsReport`] — a snapshot exportable as `BENCH_*.json`-style
//!   JSON.
//!
//! # Zero cost when disabled
//!
//! [`Recorder::disabled`] carries no allocation; every operation on it
//! reduces to one `Option` discriminant test, records nothing, and never
//! reads the clock. Library constructors default to a disabled recorder,
//! so callers that never opt in pay nothing (the `bench_obs` benchmark in
//! `rrs-bench` guards this), and an enabled run is bit-identical to a
//! disabled one: instrumentation only observes, it never steers.
//!
//! Stage names used across the workspace live in [`stage`] so producers
//! and report consumers cannot drift apart.

#![warn(missing_docs)]

pub mod hist;
pub mod report;

use hist::DurationHist;
use report::ObsReport;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Canonical stage and counter names threaded through the pipeline.
pub mod stage {
    /// Amplitude-array evaluation during kernel construction.
    pub const KERNEL_AMPLITUDE: &str = "kernel_build/amplitude";
    /// The forward DFT of the amplitude array (paper eqn 34).
    pub const KERNEL_DFT: &str = "kernel_build/dft";
    /// Re-centring permutation of the kernel (fftshift, eqn 35).
    pub const KERNEL_PERMUTE: &str = "kernel_build/permute";
    /// Energy-budget truncation search (paper §2.4).
    pub const KERNEL_TRUNCATE: &str = "kernel_build/truncate";
    /// Noise-window materialisation ahead of correlation.
    pub const WINDOW_MATERIALISE: &str = "window/materialise";
    /// Counter: noise samples a window copied from the one its generator
    /// held (a consecutive strip's shared columns) instead of evaluating.
    pub const WINDOW_REUSED_SAMPLES: &str = "window/reused_samples";
    /// The correlation inner loops (homogeneous or blended).
    pub const CORRELATE: &str = "correlate/inner";
    /// Counter: output samples produced by correlation workers.
    pub const CORRELATE_SAMPLES: &str = "correlate/samples";
    /// Counter: samples whose weight map selected exactly one kernel.
    pub const INHOMO_PURE_SAMPLES: &str = "inhomo/pure_samples";
    /// Counter: samples inside a transition (more than one kernel active).
    pub const INHOMO_BLENDED_SAMPLES: &str = "inhomo/blended_samples";
    /// Counter: kernel dot products evaluated by the blender.
    pub const INHOMO_KERNEL_EVALS: &str = "inhomo/kernel_evals";
    /// Counter: strips produced by a streaming generator.
    pub const STRIP_TILES: &str = "strip/tiles";
    /// Counter: correlation requests dispatched to the FFT overlap-save
    /// backend (one per window, not per tile).
    pub const CONV_BACKEND_FFT: &str = "conv/backend_fft";
    /// Counter: correlation requests dispatched to the direct spatial
    /// backend.
    pub const CONV_BACKEND_DIRECT: &str = "conv/backend_direct";
    /// Counter: overlap-save tiles processed by the FFT backend.
    pub const CONV_FFT_TILES: &str = "conv/fft_tiles";
    /// Counter: overlap-save tiles dispatched across multiple workers by
    /// the real-input FFT engine (subset of [`CONV_FFT_TILES`]).
    pub const CONV_TILES_PARALLEL: &str = "conv/tiles_parallel";
    /// Counter: 2-D FFT plan requests served from a shared plan cache.
    pub const FFT_PLAN_HIT: &str = "fft/plan_hit";
    /// Counter: 2-D FFT plan requests that had to build a new plan.
    pub const FFT_PLAN_MISS: &str = "fft/plan_miss";
    /// Checkpoint serialisation + write.
    pub const CHECKPOINT_WRITE: &str = "checkpoint/write";
    /// Checkpoint durability barrier (fsync).
    pub const CHECKPOINT_FSYNC: &str = "checkpoint/fsync";
    /// Counter: checkpoint bytes written.
    pub const CHECKPOINT_BYTES: &str = "checkpoint/bytes";
    /// Surface snapshot export.
    pub const EXPORT_SNAPSHOT: &str = "export/snapshot";
    /// Counter: cooperative budget polls (cancel/deadline checks) taken
    /// by workers and tile loops.
    pub const BUDGET_POLLS: &str = "budget/polls";
    /// Counter: requests rejected by byte-budget admission control.
    pub const BUDGET_REJECT: &str = "budget/reject";
    /// Counter: attempts made by retrying durable writers (first try
    /// included, so a fault-free write counts 1).
    pub const RETRY_ATTEMPTS: &str = "retry/attempts";
    /// Histogram: backoff delay scheduled before each retry attempt.
    pub const RETRY_BACKOFF: &str = "retry/backoff";
    /// Counter: parallel bands executed.
    pub const PAR_BANDS: &str = "par/bands";
    /// Counter: worker bands whose closure panicked.
    pub const PAR_WORKER_PANICS: &str = "par/worker_panics";
    /// Counter: serial-fallback retries after a parallel panic. No
    /// longer ticked: `rrs-par` has no serial fallback. Kept so reports
    /// that read it stay valid.
    pub const PAR_SERIAL_FALLBACKS: &str = "par/serial_fallbacks";
    /// Counter: windows re-run on the retired serial complex FFT engine.
    /// No longer ticked: the ladder is `FftOverlapSave → Direct`. Kept
    /// so reports that read it stay valid.
    pub const CONV_DEGRADED_TO_FFT_SERIAL: &str = "conv/degraded_to_fft_serial";
    /// Counter: windows the degradation ladder re-ran on the reference
    /// rung (the direct spatial loop, or the inhomogeneous per-sample
    /// loop) after the fast rung failed or was skipped.
    pub const CONV_DEGRADED_TO_DIRECT: &str = "conv/degraded_to_direct";
    /// Counter: fast-rung attempts skipped because the per-generator
    /// circuit breaker held it open (too many consecutive failures).
    pub const CONV_BREAKER_SKIPS: &str = "conv/breaker_skips";
    /// Counter: FFT plan/kernel-spectrum cache locks found poisoned and
    /// rebuilt from empty instead of propagating the poison.
    pub const FFT_PLAN_POISONED: &str = "fft/plan_poisoned";
    /// Counter: generate requests accepted by the serving front-end.
    pub const SERVE_REQUESTS: &str = "serve/requests";
    /// Counter: batches the serve scheduler dispatched (each batch
    /// shares one generator and its warmed kernel spectrum).
    pub const SERVE_BATCHES: &str = "serve/batches";
    /// Counter: requests served as a follower inside a coalesced batch
    /// (i.e. beyond the first request of each batch).
    pub const SERVE_COALESCED: &str = "serve/coalesced";
    /// Counter: requests rejected with a typed `Overloaded` response by
    /// admission control, before any allocation.
    pub const SERVE_OVERLOADED: &str = "serve/overloaded";
    /// Counter: batch dispatches that found their generator hot in the
    /// serve-side kernel LRU.
    pub const SERVE_KERNEL_HIT: &str = "serve/kernel_hit";
    /// Counter: batch dispatches that had to build a new generator
    /// (kernel construction + spectrum warm-up).
    pub const SERVE_KERNEL_MISS: &str = "serve/kernel_miss";
    /// Counter: generators evicted from the serve-side kernel LRU.
    pub const SERVE_KERNEL_EVICT: &str = "serve/kernel_evict";
    /// Window generation performed on behalf of a served request.
    pub const SERVE_GENERATE: &str = "serve/generate";
    /// Counter: server connections dropped because the peer stalled
    /// past the per-connection read deadline (slow-loris defense).
    pub const SERVE_CONN_TIMEOUT: &str = "serve/conn_timeout";
    /// Counter: requests rejected because their connection was already
    /// at its in-flight frame cap.
    pub const SERVE_CONN_BUSY: &str = "serve/conn_busy";
    /// Counter: generate requests refused with a typed `Draining` error
    /// while the server was shutting down gracefully.
    pub const SERVE_DRAINING_REJECT: &str = "serve/draining_reject";
    /// Counter: sharded-client re-attempts after a retryable failure
    /// (one per backoff sweep beyond the first).
    pub const SERVE_CLIENT_RETRY: &str = "serve/client_retry";
    /// Counter: sharded-client dispatches to a non-primary endpoint
    /// because the rendezvous-preferred endpoint was down or skipped.
    pub const SERVE_CLIENT_FAILOVER: &str = "serve/client_failover";
    /// Counter: endpoints skipped by the sharded client's per-endpoint
    /// circuit breaker (open after repeated consecutive failures).
    pub const SERVE_CLIENT_BREAKER_SKIP: &str = "serve/client_breaker_skip";
    /// Counter: fresh endpoint connections established by the sharded
    /// client (first connects and reconnects after a failure alike).
    pub const SERVE_CLIENT_CONNECT: &str = "serve/client_connect";
}

/// An in-flight stage timer. Obtain with [`Recorder::start`], close with
/// [`Recorder::finish`] — dropping a span without finishing records
/// nothing (deliberate: abandoning a stage after an error must not litter
/// the histogram with torn timings).
#[must_use = "a span records nothing until passed to Recorder::finish"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// The stage name this span was started for.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A worker-private accumulation buffer: plain counters, no
/// synchronisation. Fill it inside the band loop, then merge the whole
/// shard with one [`Recorder::absorb`] (a single lock acquisition),
/// keeping the hot loop free of locks, atomics and clock reads.
#[derive(Debug, Default)]
pub struct Shard {
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    durations: Vec<(&'static str, DurationHist)>,
}

impl Shard {
    /// Adds `delta` to the shard-local counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        if let Some(slot) = self.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += delta;
        } else {
            self.counters.push((name, delta));
        }
    }

    /// Records one duration of `ns` nanoseconds under `name`.
    #[inline]
    pub fn record_duration_ns(&mut self, name: &'static str, ns: u64) {
        if !self.enabled {
            return;
        }
        if let Some(slot) = self.durations.iter_mut().find(|(n, _)| *n == name) {
            slot.1.record(ns);
        } else {
            let mut h = DurationHist::default();
            h.record(ns);
            self.durations.push((name, h));
        }
    }

    /// True when the shard actually accumulates (its recorder is enabled).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[derive(Default)]
struct Agg {
    counters: BTreeMap<&'static str, u64>,
    durations: BTreeMap<&'static str, DurationHist>,
}

/// The thread-safe aggregation point for one observed pipeline.
///
/// Cloning is cheap and every clone shares the same aggregation state, so
/// a recorder can be handed to a generator at construction and kept by
/// the caller for the final [`Recorder::report`]. A
/// [`Recorder::disabled`] recorder holds no state at all.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<Agg>>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Recorder {
    /// A recorder that aggregates everything it is shown.
    pub fn enabled() -> Self {
        Self { inner: Some(Arc::new(Mutex::new(Agg::default()))) }
    }

    /// The no-op recorder: records nothing, never reads the clock, and
    /// costs one `Option` check per call. This is the default every
    /// generator starts with.
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// True when observations are being aggregated.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a stage timer. On a disabled recorder this does not read
    /// the clock.
    #[inline]
    pub fn start(&self, name: &'static str) -> Span {
        Span { name, start: if self.inner.is_some() { Some(Instant::now()) } else { None } }
    }

    /// Stops `span` and records its elapsed wall time.
    #[inline]
    pub fn finish(&self, span: Span) {
        if let (Some(t0), Some(inner)) = (span.start, self.inner.as_deref()) {
            let ns = duration_ns(t0);
            lock(inner).durations.entry(span.name).or_default().record(ns);
        }
    }

    /// Adds `delta` to the counter `name`. Names are `'static` workspace
    /// identifiers (`group/label`, see [`stage`]) so hot paths never
    /// format strings.
    #[inline]
    pub fn add_counter(&self, name: &'static str, delta: u64) {
        if let Some(inner) = self.inner.as_deref() {
            *lock(inner).counters.entry(name).or_insert(0) += delta;
        }
    }

    /// Records one duration of `ns` nanoseconds under `name`.
    #[inline]
    pub fn record_duration_ns(&self, name: &'static str, ns: u64) {
        if let Some(inner) = self.inner.as_deref() {
            lock(inner).durations.entry(name).or_default().record(ns);
        }
    }

    /// Times the closure `f` as one observation of stage `name`.
    #[inline]
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.start(name);
        let out = f();
        self.finish(span);
        out
    }

    /// A worker-private shard (enabled iff this recorder is).
    pub fn shard(&self) -> Shard {
        Shard { enabled: self.inner.is_some(), counters: Vec::new(), durations: Vec::new() }
    }

    /// Merges a shard's accumulations under one lock acquisition.
    pub fn absorb(&self, shard: Shard) {
        let Some(inner) = self.inner.as_deref() else { return };
        if shard.counters.is_empty() && shard.durations.is_empty() {
            return;
        }
        let mut agg = lock(inner);
        for (name, delta) in shard.counters {
            *agg.counters.entry(name).or_insert(0) += delta;
        }
        for (name, h) in shard.durations {
            agg.durations.entry(name).or_default().merge(&h);
        }
    }

    /// Snapshots everything aggregated so far. A disabled recorder
    /// reports empty.
    pub fn report(&self) -> ObsReport {
        let Some(inner) = self.inner.as_deref() else { return ObsReport::default() };
        let agg = lock(inner);
        ObsReport {
            counters: agg.counters.iter().map(|(&k, &v)| (k, v)).collect(),
            durations: agg.durations.iter().map(|(&k, v)| (k, v.clone())).collect(),
        }
    }
}

/// Elapsed nanoseconds since `t0`, saturating at `u64::MAX`.
#[inline]
fn duration_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A recorder mutex is only held for constant-time merges; a poisoned
/// lock means a panic mid-merge, and the aggregation state (plain
/// counters) is still internally consistent, so observation continues.
fn lock(m: &Mutex<Agg>) -> std::sync::MutexGuard<'_, Agg> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing_and_skips_the_clock() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let span = rec.start(stage::CORRELATE);
        assert!(span.start.is_none(), "disabled span must not read Instant::now");
        rec.finish(span);
        rec.add_counter(stage::PAR_BANDS, 10);
        rec.record_duration_ns(stage::CORRELATE, 99);
        let mut shard = rec.shard();
        shard.add(stage::CORRELATE_SAMPLES, 5);
        shard.record_duration_ns(stage::CORRELATE, 5);
        rec.absorb(shard);
        assert!(rec.report().is_empty());
    }

    #[test]
    fn enabled_recorder_aggregates_counters_and_durations() {
        let rec = Recorder::enabled();
        rec.add_counter(stage::PAR_BANDS, 3);
        rec.add_counter(stage::PAR_BANDS, 4);
        let span = rec.start(stage::CORRELATE);
        rec.finish(span);
        rec.time(stage::CORRELATE, || std::hint::black_box(1 + 1));
        let report = rec.report();
        assert_eq!(report.counter(stage::PAR_BANDS), 7);
        let h = &report.durations[stage::CORRELATE];
        assert_eq!(h.count, 2);
        assert!(h.min_ns <= h.max_ns);
    }

    #[test]
    fn clones_share_aggregation_state() {
        let rec = Recorder::enabled();
        let clone = rec.clone();
        clone.add_counter(stage::STRIP_TILES, 2);
        rec.add_counter(stage::STRIP_TILES, 1);
        assert_eq!(rec.report().counter(stage::STRIP_TILES), 3);
        assert_eq!(clone.report(), rec.report());
    }

    #[test]
    fn shards_merge_like_direct_recording() {
        let direct = Recorder::enabled();
        let sharded = Recorder::enabled();
        for band in 0..4u64 {
            direct.add_counter(stage::CORRELATE_SAMPLES, 10 + band);
            direct.record_duration_ns(stage::CORRELATE, 100 * (band + 1));
            let mut s = sharded.shard();
            s.add(stage::CORRELATE_SAMPLES, 10 + band);
            s.record_duration_ns(stage::CORRELATE, 100 * (band + 1));
            sharded.absorb(s);
        }
        assert_eq!(direct.report(), sharded.report());
    }

    #[test]
    fn shards_absorb_correctly_across_threads() {
        let rec = Recorder::enabled();
        std::thread::scope(|s| {
            for band in 0..8usize {
                let rec = &rec;
                s.spawn(move || {
                    let mut shard = rec.shard();
                    for _ in 0..100 {
                        shard.add(stage::CORRELATE_SAMPLES, band as u64);
                    }
                    rec.absorb(shard);
                });
            }
        });
        // Σ_band 100·band for band in 0..8 = 100·28.
        assert_eq!(rec.report().counter(stage::CORRELATE_SAMPLES), 2800);
    }

    #[test]
    fn abandoned_span_records_nothing() {
        let rec = Recorder::enabled();
        let span = rec.start(stage::KERNEL_DFT);
        drop(span);
        assert!(rec.report().is_empty());
    }

    #[test]
    fn report_exports_to_json() {
        let rec = Recorder::enabled();
        rec.add_counter(stage::CHECKPOINT_BYTES, 40);
        rec.record_duration_ns(stage::CHECKPOINT_WRITE, 512);
        let j = rec.report().to_json("");
        assert!(j.contains("\"checkpoint/bytes\": 40"));
        assert!(j.contains("\"checkpoint/write\""));
    }
}
