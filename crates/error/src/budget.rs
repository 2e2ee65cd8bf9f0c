//! Per-request resource budgets: deadlines, cooperative cancellation and
//! byte-level admission control.
//!
//! A [`Budget`] travels with a generation request and bounds three
//! resources independently:
//!
//! * **wall-clock time** — a [`Budget::with_deadline`] /
//!   [`Budget::with_timeout`] instant after which polling sites return
//!   [`RrsError::DeadlineExceeded`];
//! * **caller interest** — a shared [`CancelToken`] the caller can trip
//!   from any thread; polling sites return [`RrsError::Cancelled`];
//! * **memory** — a [`Budget::with_max_bytes`] ceiling checked by
//!   *admission control* ([`Budget::admit`]) **before** a kernel window or
//!   output field is allocated, so an oversized request fails with a
//!   precise [`RrsError::BudgetExceeded`] instead of aborting the process
//!   inside the allocator.
//!
//! The default [`Budget::unlimited`] carries none of the three, and every
//! polling site is required to degrade to its pre-budget code path in that
//! case (the `bench_runtime` gate enforces this), so callers that never
//! opt in pay nothing.
//!
//! Cancellation is *cooperative*: workers poll [`Budget::check`] at band
//! (or tile) granularity, never mid-row, so a tripped budget surfaces in
//! bounded time without torn partial output ever being handed to the
//! caller.

use crate::RrsError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap, clonable cancellation flag shared between the caller and the
/// workers executing its request.
///
/// Clones share one flag: tripping any clone via [`CancelToken::cancel`]
/// is observed by every polling site holding another clone. Polling is a
/// single relaxed atomic load — cheap enough for band-granularity checks
/// in hot loops.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has been cancelled.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The resource bounds attached to one generation request.
///
/// See the [module docs](self) for the three independent limits. Build
/// with the `with_*` methods:
///
/// ```
/// use rrs_error::{Budget, CancelToken};
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// let budget = Budget::unlimited()
///     .with_timeout(Duration::from_secs(30))
///     .with_cancel_token(token.clone())
///     .with_max_bytes(256 << 20);
/// assert!(budget.check().is_ok());
/// token.cancel();
/// assert!(budget.check().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_bytes: Option<usize>,
}

impl Budget {
    /// The no-limit budget every generator starts with: no deadline, no
    /// cancel token, no byte ceiling. [`Budget::check`] and
    /// [`Budget::admit`] always succeed without reading the clock.
    pub const fn unlimited() -> Self {
        Self { deadline: None, cancel: None, max_bytes: None }
    }

    /// Bounds the request by an absolute wall-clock instant.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Bounds the request by a duration from now
    /// (`with_deadline(Instant::now() + timeout)`).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Attaches a cancellation token; keep a clone to trip the request.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the bytes any single request may materialise (kernel window
    /// plus output field), enforced by [`Budget::admit`] before
    /// allocation.
    pub fn with_max_bytes(mut self, max_bytes: usize) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The configured byte ceiling, if any.
    pub fn max_bytes(&self) -> Option<usize> {
        self.max_bytes
    }

    /// True when no limit of any kind is configured — polling sites use
    /// this to fall back to their pre-budget code path.
    #[inline]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.max_bytes.is_none()
    }

    /// True when [`Budget::check`] can ever fail (a deadline or cancel
    /// token is present). A max-bytes-only budget needs admission checks
    /// but no in-loop polling.
    #[inline]
    pub fn needs_polling(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Polls the cancel token and the deadline, in that order.
    ///
    /// Returns [`RrsError::Cancelled`] if the token is tripped,
    /// [`RrsError::DeadlineExceeded`] if the deadline has passed, `Ok`
    /// otherwise. With neither configured this does nothing — not even a
    /// clock read.
    #[inline]
    pub fn check(&self) -> Result<(), RrsError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(RrsError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(RrsError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Admission control: succeeds iff materialising `required_bytes`
    /// fits the byte ceiling (always, when none is configured).
    ///
    /// Callers compute `required_bytes` in `u128` so the estimate itself
    /// can never overflow; `what` names the allocation for the error
    /// message.
    pub fn admit(&self, what: &'static str, required_bytes: u128) -> Result<(), RrsError> {
        match self.max_bytes {
            Some(max) if required_bytes > max as u128 => Err(RrsError::BudgetExceeded {
                what,
                required_bytes,
                max_bytes: max,
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorKind;

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert!(!budget.needs_polling());
        assert!(budget.check().is_ok());
        assert!(budget.admit("anything", u128::MAX).is_ok());
    }

    #[test]
    fn cancelled_token_fails_check() {
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel_token(token.clone());
        assert!(!budget.is_unlimited());
        assert!(budget.needs_polling());
        assert!(budget.check().is_ok());
        token.cancel();
        let err = budget.check().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Cancelled);
    }

    #[test]
    fn past_deadline_fails_check() {
        let budget = Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let err = budget.check().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::DeadlineExceeded);
        // A generous future deadline passes.
        let budget = Budget::unlimited().with_timeout(Duration::from_secs(3600));
        assert!(budget.check().is_ok());
    }

    #[test]
    fn cancel_takes_precedence_over_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited()
            .with_cancel_token(token)
            .with_deadline(Instant::now() - Duration::from_secs(1));
        assert_eq!(budget.check().unwrap_err().kind(), ErrorKind::Cancelled);
    }

    #[test]
    fn admission_compares_against_the_ceiling() {
        let budget = Budget::unlimited().with_max_bytes(1024);
        assert!(!budget.needs_polling(), "max-bytes-only budget needs no polling");
        assert!(budget.admit("field", 1024).is_ok(), "exactly at the ceiling is admitted");
        let err = budget.admit("field", 1025).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BudgetExceeded);
        let msg = err.to_string();
        assert!(msg.contains("1025") && msg.contains("1024"), "{msg}");
        assert!(msg.contains("field"), "{msg}");
    }

    #[test]
    fn admission_survives_u128_scale_requests() {
        let budget = Budget::unlimited().with_max_bytes(usize::MAX);
        // A request larger than any addressable allocation still compares
        // cleanly instead of overflowing.
        let huge = u128::from(u64::MAX) * 16;
        assert!(budget.admit("field", huge).is_err());
    }
}
