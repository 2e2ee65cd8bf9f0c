//! Deterministic retry with exponential backoff for durable writes.
//!
//! Checkpoint and snapshot writes sit on the other side of the filesystem
//! fault boundary: a transient `EIO`, a briefly-full disk or an injected
//! `failpoints` fault should not kill an hours-long streaming run. A
//! [`RetryPolicy`] wraps such a write and retries *transient* failures
//! (I/O errors) a bounded number of times with exponential backoff, while
//! failing immediately on anything that retrying cannot fix (corruption,
//! invalid parameters, budget trips).
//!
//! Determinism: the backoff for attempt `k` is the pure function
//! `base_delay · 2^(k−1)` — no jitter, no clock sampling — so a retry
//! schedule is reproducible from the policy alone. Sleeping is abstracted
//! behind [`Sleeper`] so tests (and the `failpoints` suite) inject a
//! recording no-op sleeper and run instantly; production callers use the
//! default [`ThreadSleeper`].

use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, ErrorKind, RrsError};
use rrs_obs::{stage, Recorder};
use std::time::{Duration, Instant};

/// How to wait between attempts. Injectable so tests run instantly.
pub trait Sleeper {
    /// Blocks for (or records) `d`.
    fn sleep(&self, d: Duration);
}

/// The production sleeper: `std::thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A bounded, deterministic retry schedule for fallible I/O.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: u32,
    /// Backoff before retry `k` (the `k+1`-th attempt) is
    /// `base_delay · 2^(k−1)`.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// Three attempts, 10 ms base — first retry after 10 ms, second after
    /// a further 20 ms.
    fn default() -> Self {
        Self { max_attempts: 3, base_delay: Duration::from_millis(10) }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before attempt `attempt` (1-based; the
    /// first attempt has no backoff).
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            Duration::ZERO
        } else {
            self.base_delay.saturating_mul(1u32 << (attempt - 2).min(30))
        }
    }

    /// Runs `op` until it succeeds, fails permanently, or the attempt
    /// budget is exhausted, sleeping through `sleeper` between attempts
    /// (production callers pass [`ThreadSleeper`]).
    ///
    /// Only [`ErrorKind::Io`] failures are treated as transient and
    /// retried; every other kind fails closed immediately (retrying a
    /// corrupt payload or an exceeded budget cannot succeed). Each attempt
    /// ticks [`stage::RETRY_ATTEMPTS`] and each backoff slept is recorded
    /// in the [`stage::RETRY_BACKOFF`] duration histogram. On exhaustion
    /// the final error is wrapped with the attempt history.
    ///
    /// The budget is polled before every attempt, and each backoff is
    /// clamped against an armed deadline *before* sleeping: if
    /// `now + backoff` would land past `budget.deadline()`, the policy
    /// returns [`RrsError::DeadlineExceeded`] immediately instead of
    /// sleeping through a deadline it is guaranteed to miss. The chaos
    /// injector's [`FaultSite::RetrySleep`] site is polled (contained)
    /// before each backoff. Pass [`Budget::unlimited`] and
    /// [`ChaosInjector::disabled`] to arm neither.
    pub fn run<T, F, S>(
        &self,
        obs: &Recorder,
        sleeper: &S,
        budget: &Budget,
        chaos: &ChaosInjector,
        op: &mut F,
    ) -> Result<T, RrsError>
    where
        F: FnMut() -> Result<T, RrsError>,
        S: Sleeper + ?Sized,
    {
        let attempts = self.max_attempts.max(1);
        let mut history = String::new();
        for attempt in 1..=attempts {
            if attempt > 1 {
                let delay = self.backoff(attempt);
                chaos.poll_contained(FaultSite::RetrySleep)?;
                if let Some(deadline) = budget.deadline() {
                    let now = Instant::now();
                    if now.checked_add(delay).is_none_or(|wake| wake > deadline) {
                        return Err(RrsError::DeadlineExceeded.with_context(format!(
                            "a {delay:?} backoff before attempt {attempt} \
                             would sleep past the armed deadline"
                        )));
                    }
                }
                let span = obs.start(stage::RETRY_BACKOFF);
                sleeper.sleep(delay);
                obs.finish(span);
            }
            budget.check()?;
            obs.add_counter(stage::RETRY_ATTEMPTS, 1);
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.kind() == ErrorKind::Io && attempt < attempts => {
                    if !history.is_empty() {
                        history.push_str("; ");
                    }
                    history.push_str(&format!("attempt {attempt}: {e}"));
                }
                Err(e) if e.kind() == ErrorKind::Io => {
                    return Err(e.with_context(format!(
                        "persistent I/O failure after {attempts} attempts \
                         (earlier: {})",
                        if history.is_empty() { "none" } else { &history },
                    )));
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on the final attempt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Records requested sleeps instead of blocking.
    struct RecordingSleeper(RefCell<Vec<Duration>>);

    impl Sleeper for RecordingSleeper {
        fn sleep(&self, d: Duration) {
            self.0.borrow_mut().push(d);
        }
    }

    fn io_err(msg: &str) -> RrsError {
        RrsError::from(std::io::Error::other(msg.to_string()))
    }

    #[test]
    fn backoff_is_a_pure_exponential_of_the_attempt() {
        let p = RetryPolicy { max_attempts: 5, base_delay: Duration::from_millis(10) };
        assert_eq!(p.backoff(1), Duration::ZERO);
        assert_eq!(p.backoff(2), Duration::from_millis(10));
        assert_eq!(p.backoff(3), Duration::from_millis(20));
        assert_eq!(p.backoff(4), Duration::from_millis(40));
        // Saturates instead of overflowing for absurd attempt numbers.
        let _ = p.backoff(u32::MAX);
    }

    #[test]
    fn transient_fault_recovers_with_counted_attempts() {
        let fails = AtomicU32::new(2);
        let rec = Recorder::enabled();
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        let policy = RetryPolicy::default();
        let out = policy
            .run(
                &rec,
                &sleeper,
                &Budget::unlimited(),
                &ChaosInjector::disabled(),
                &mut || {
                    if fails
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                    {
                        Err(io_err("transient"))
                    } else {
                        Ok(42)
                    }
                },
            )
            .unwrap();
        assert_eq!(out, 42);
        let report = rec.report();
        assert_eq!(report.counter(stage::RETRY_ATTEMPTS), 3);
        assert_eq!(report.durations[stage::RETRY_BACKOFF].count, 2);
        assert_eq!(
            *sleeper.0.borrow(),
            vec![Duration::from_millis(10), Duration::from_millis(20)],
            "deterministic exponential schedule"
        );
    }

    #[test]
    fn persistent_fault_fails_closed_with_attempt_history() {
        let rec = Recorder::enabled();
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        let policy = RetryPolicy::default();
        let err = policy
            .run::<(), _, _>(
                &rec,
                &sleeper,
                &Budget::unlimited(),
                &ChaosInjector::disabled(),
                &mut || Err(io_err("disk on fire")),
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io, "kind penetrates the context wrapper");
        let msg = err.to_string();
        assert!(msg.contains("after 3 attempts"), "{msg}");
        assert!(msg.contains("attempt 1") && msg.contains("attempt 2"), "{msg}");
        assert_eq!(rec.report().counter(stage::RETRY_ATTEMPTS), 3);
    }

    #[test]
    fn non_io_errors_are_not_retried() {
        let calls = AtomicU32::new(0);
        let rec = Recorder::enabled();
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        let err = RetryPolicy::default()
            .run::<(), _, _>(
                &rec,
                &sleeper,
                &Budget::unlimited(),
                &ChaosInjector::disabled(),
                &mut || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err(RrsError::corrupt_snapshot("retrying cannot fix this"))
                },
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::CorruptSnapshot);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "permanent failure: exactly one attempt");
        assert!(sleeper.0.borrow().is_empty());
    }

    #[test]
    fn success_on_first_attempt_never_sleeps() {
        let rec = Recorder::enabled();
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        let out = RetryPolicy::default()
            .run(&rec, &sleeper, &Budget::unlimited(), &ChaosInjector::disabled(), &mut || Ok(7))
            .unwrap();
        assert_eq!(out, 7);
        assert_eq!(rec.report().counter(stage::RETRY_ATTEMPTS), 1);
        assert!(sleeper.0.borrow().is_empty());
    }

    #[test]
    fn zero_attempts_is_clamped_to_one() {
        let policy = RetryPolicy { max_attempts: 0, base_delay: Duration::ZERO };
        let out = policy
            .run(
                &Recorder::disabled(),
                &ThreadSleeper,
                &Budget::unlimited(),
                &ChaosInjector::disabled(),
                &mut || Ok::<_, RrsError>(1),
            )
            .unwrap();
        assert_eq!(out, 1);
    }

    #[test]
    fn backoff_past_the_deadline_fails_fast_instead_of_sleeping() {
        // First backoff is 1 h; the deadline is 50 ms away. The policy
        // must return DeadlineExceeded *without* sleeping — a retrying
        // writer inside a deadlined streaming run gives the caller the
        // remaining time back instead of burning it in a doomed backoff.
        let rec = Recorder::enabled();
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        let policy =
            RetryPolicy { max_attempts: 3, base_delay: Duration::from_secs(3600) };
        let budget =
            rrs_error::Budget::unlimited().with_timeout(Duration::from_millis(50));
        let err = policy
            .run::<(), _, _>(
                &rec,
                &sleeper,
                &budget,
                &ChaosInjector::disabled(),
                &mut || Err(io_err("transient")),
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeadlineExceeded);
        assert!(err.to_string().contains("would sleep past"), "{err}");
        assert!(sleeper.0.borrow().is_empty(), "must not have slept");
        assert_eq!(rec.report().counter(stage::RETRY_ATTEMPTS), 1);
    }

    #[test]
    fn chaos_faults_the_retry_sleep_site_without_sleeping() {
        use rrs_chaos::{FaultKind, FaultSchedule};
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        // An Error fault at the first RetrySleep visit aborts the retry
        // loop with a typed error before the backoff runs.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(1).with_fault(FaultSite::RetrySleep, FaultKind::Error, 0),
        );
        let err = RetryPolicy::default()
            .run::<(), _, _>(
                &Recorder::disabled(),
                &sleeper,
                &rrs_error::Budget::unlimited(),
                &chaos,
                &mut || Err(io_err("transient")),
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::FaultInjected);
        assert!(sleeper.0.borrow().is_empty());

        // A Panic fault at the same site is contained to WorkerPanicked —
        // the panic never unwinds through the retry loop.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(2).with_fault(FaultSite::RetrySleep, FaultKind::Panic, 0),
        );
        let err = RetryPolicy::default()
            .run::<(), _, _>(
                &Recorder::disabled(),
                &sleeper,
                &rrs_error::Budget::unlimited(),
                &chaos,
                &mut || Err(io_err("transient")),
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WorkerPanicked);
    }

    rrs_check::props! {
        #![cases = 96]

        // The clamp property: whenever the *first* backoff already
        // exceeds the armed deadline's offset, the policy returns
        // DeadlineExceeded without ever invoking the sleeper. This holds
        // deterministically because time only moves forward: if
        // offset < delay then now + delay > arm_time + offset.
        fn backoff_never_sleeps_past_an_armed_deadline(
            attempts in 2u32..6,
            base_us in 1_000u64..1_000_000,
            frac in 0.0f64..1.0,
        ) {
            let policy = RetryPolicy {
                max_attempts: attempts,
                base_delay: Duration::from_micros(base_us),
            };
            let first_backoff = policy.backoff(2);
            // A deadline strictly inside the first backoff.
            let offset = first_backoff.mul_f64(frac * 0.99);
            let budget = rrs_error::Budget::unlimited().with_timeout(offset);
            let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
            let err = policy
                .run::<(), _, _>(
                    &Recorder::disabled(),
                    &sleeper,
                    &budget,
                    &ChaosInjector::disabled(),
                    &mut || Err(io_err("transient")),
                )
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::DeadlineExceeded);
            assert!(
                sleeper.0.borrow().is_empty(),
                "a backoff of {first_backoff:?} must not start under a \
                 deadline {offset:?} away"
            );
        }
    }
}
