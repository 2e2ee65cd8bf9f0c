//! Unified error taxonomy for the rrs workspace.
//!
//! Every fallible entry point in the workspace — parameter validation,
//! shape checks, snapshot decoding, parallel execution — reports a
//! [`RrsError`]. The taxonomy is deliberately small: callers match on
//! [`RrsError::kind`] to branch programmatically, while
//! [`Display`](std::fmt::Display) produces the same human-readable
//! one-liners the old panicking constructors used, so `try_*` APIs and
//! their panicking wrappers speak one language.
//!
//! # Error-handling policy
//!
//! * **Caller input is never trusted** — constructors and entry points
//!   that consume user-supplied values come in a `try_*` form returning
//!   `Result<_, RrsError>`. The panicking forms are thin wrappers kept for
//!   ergonomic internal use and for call sites that have already
//!   validated.
//! * **Panics mark internal invariants only** — an index derived from an
//!   already-validated shape, a partition that covers a slice by
//!   construction. A panic reaching the user is a bug in this workspace,
//!   never a diagnostics channel for bad input.
//! * **Parallel sections contain panics** — `rrs-par`'s `try_*`
//!   primitives catch worker panics and surface them as
//!   [`RrsError::WorkerPanicked`] naming the failed band.
//!
//! # Context chaining
//!
//! [`ResultExt::context`] wraps any `Result<_, RrsError>` with a
//! higher-level line; the chain prints outermost-first and
//! [`std::error::Error::source`] walks it:
//!
//! ```
//! use rrs_error::{RrsError, ResultExt};
//! let err: Result<(), RrsError> =
//!     Err(RrsError::corrupt_snapshot("bad magic")).context("loading checkpoint");
//! assert_eq!(err.unwrap_err().to_string(), "loading checkpoint: corrupt snapshot: bad magic");
//! ```

#![warn(missing_docs)]

pub mod budget;

pub use budget::{Budget, CancelToken};

use std::error::Error as StdError;
use std::fmt;
use std::io;

/// Discriminant of a [`RrsError`], for programmatic matching.
///
/// [`RrsError::kind`] looks through [`RrsError::Context`] wrappers, so a
/// chained error keeps the kind of its root cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// A caller-supplied parameter lies outside its valid domain.
    InvalidParam,
    /// Two shapes that must agree do not.
    ShapeMismatch,
    /// A non-finite value (NaN or ±∞) where finite data is required.
    NonFinite,
    /// A parallel worker band panicked.
    WorkerPanicked,
    /// Snapshot or checkpoint bytes failed validation.
    CorruptSnapshot,
    /// An operating-system I/O failure.
    Io,
    /// The request's cancel token was tripped.
    Cancelled,
    /// The request's wall-clock deadline passed.
    DeadlineExceeded,
    /// Admission control rejected the request's memory footprint.
    BudgetExceeded,
    /// A deterministic chaos schedule injected a fault at this site.
    FaultInjected,
    /// A serving endpoint could not be reached (connect failed, timed
    /// out, or the connection died). Retryable: generation is
    /// idempotent, so the same request can be re-issued anywhere.
    Unavailable,
    /// The serving endpoint is draining for shutdown and refuses new
    /// work. Retryable against another endpoint.
    Draining,
}

impl ErrorKind {
    /// Whether a failure of this kind is safe and sensible to retry.
    ///
    /// Retryable kinds describe the *transport or endpoint*, never the
    /// request: because every window is a pure function of
    /// `(seed, spectrum, window)`, re-issuing the identical request —
    /// on the same endpoint or any other — can only produce the
    /// identical bits or another transient failure. Kinds that describe
    /// the request itself (`InvalidParam`, `BudgetExceeded`, …) fail
    /// the same way everywhere and must surface unchanged.
    pub fn is_retryable(self) -> bool {
        matches!(self, Self::Io | Self::Unavailable | Self::Draining)
    }
}

/// The workspace-wide error type.
///
/// `#[non_exhaustive]`: new failure classes may be added as the pipeline
/// grows (the fallible-core PR added several), so downstream matches
/// need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum RrsError {
    /// A caller-supplied parameter lies outside its valid domain.
    ///
    /// `message` is the full human-readable diagnosis (`"clx must be
    /// finite and positive, got 0"`); `param` names the offending
    /// parameter for programmatic use.
    InvalidParam {
        /// Name of the offending parameter.
        param: &'static str,
        /// Full human-readable diagnosis.
        message: String,
    },
    /// Two shapes that must agree do not.
    ShapeMismatch {
        /// What was being shape-checked.
        context: &'static str,
        /// The shape the operation required.
        expected: String,
        /// The shape it was given.
        actual: String,
    },
    /// A non-finite value (NaN or ±∞) where finite data is required.
    NonFinite {
        /// Where the value was found (e.g. `"PGM render input"`).
        context: &'static str,
        /// Flat index of the first offending sample.
        index: usize,
    },
    /// A parallel worker band panicked; the band is re-raised as data.
    WorkerPanicked {
        /// Index of the band whose closure panicked.
        band: usize,
        /// The panic payload, stringified (`"…"` for non-string payloads).
        payload: String,
    },
    /// Snapshot or checkpoint bytes failed validation.
    CorruptSnapshot {
        /// What the decoder rejected (`"bad magic"`, `"checksum
        /// mismatch"`, …).
        detail: String,
    },
    /// An operating-system I/O failure.
    Io(io::Error),
    /// The request's [`CancelToken`] was tripped; workers stopped at the
    /// next band/tile poll and no partial output was handed out.
    Cancelled,
    /// The request's [`Budget`] deadline passed before generation
    /// finished.
    DeadlineExceeded,
    /// Admission control: materialising the request would exceed the
    /// [`Budget`] byte ceiling. Raised *before* any allocation.
    BudgetExceeded {
        /// What was about to be materialised (e.g. `"convolution
        /// generation"`).
        what: &'static str,
        /// Bytes the request would have needed.
        required_bytes: u128,
        /// The configured ceiling.
        max_bytes: usize,
    },
    /// A deterministic chaos schedule (`rrs-chaos`) injected a fault at
    /// a numbered pipeline site. Only ever produced under an explicitly
    /// armed `FaultSchedule`; production runs never see it.
    FaultInjected {
        /// Stable name of the fault site (e.g. `"fft_tile"`).
        site: &'static str,
        /// Zero-based visit index at which the schedule fired.
        index: u64,
    },
    /// A serving endpoint could not be reached: the connect failed or
    /// timed out, or an established connection died mid-exchange.
    /// Produced by the serving client; a sharded client treats it as
    /// the signal to fail over.
    Unavailable {
        /// What failed (`"connect to 10.0.0.7:4100 timed out"`, …).
        detail: String,
    },
    /// The serving endpoint is draining for shutdown: queued work
    /// finishes, but new requests are refused with this typed error so
    /// clients immediately retry elsewhere instead of timing out.
    Draining,
    /// A lower-level error wrapped with a higher-level context line.
    Context {
        /// The higher-level operation that failed.
        context: String,
        /// The underlying cause.
        source: Box<RrsError>,
    },
}

impl RrsError {
    /// Builds an [`RrsError::InvalidParam`].
    pub fn invalid_param(param: &'static str, message: impl Into<String>) -> Self {
        Self::InvalidParam { param, message: message.into() }
    }

    /// Builds an [`RrsError::ShapeMismatch`].
    pub fn shape_mismatch(
        context: &'static str,
        expected: impl fmt::Display,
        actual: impl fmt::Display,
    ) -> Self {
        Self::ShapeMismatch {
            context,
            expected: expected.to_string(),
            actual: actual.to_string(),
        }
    }

    /// Builds an [`RrsError::NonFinite`].
    pub fn non_finite(context: &'static str, index: usize) -> Self {
        Self::NonFinite { context, index }
    }

    /// Builds an [`RrsError::CorruptSnapshot`].
    pub fn corrupt_snapshot(detail: impl Into<String>) -> Self {
        Self::CorruptSnapshot { detail: detail.into() }
    }

    /// Builds an [`RrsError::WorkerPanicked`] from a band index and the
    /// payload `std::panic::catch_unwind` returned.
    pub fn worker_panicked(band: usize, payload: &(dyn std::any::Any + Send)) -> Self {
        let payload = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        Self::WorkerPanicked { band, payload }
    }

    /// Builds an [`RrsError::FaultInjected`] naming the chaos site and
    /// the visit index at which the schedule fired.
    pub fn fault_injected(site: &'static str, index: u64) -> Self {
        Self::FaultInjected { site, index }
    }

    /// Builds an [`RrsError::Unavailable`].
    pub fn unavailable(detail: impl Into<String>) -> Self {
        Self::Unavailable { detail: detail.into() }
    }

    /// The error's kind, looking through [`RrsError::Context`] wrappers.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Self::InvalidParam { .. } => ErrorKind::InvalidParam,
            Self::ShapeMismatch { .. } => ErrorKind::ShapeMismatch,
            Self::NonFinite { .. } => ErrorKind::NonFinite,
            Self::WorkerPanicked { .. } => ErrorKind::WorkerPanicked,
            Self::CorruptSnapshot { .. } => ErrorKind::CorruptSnapshot,
            Self::Io(_) => ErrorKind::Io,
            Self::Cancelled => ErrorKind::Cancelled,
            Self::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            Self::BudgetExceeded { .. } => ErrorKind::BudgetExceeded,
            Self::FaultInjected { .. } => ErrorKind::FaultInjected,
            Self::Unavailable { .. } => ErrorKind::Unavailable,
            Self::Draining => ErrorKind::Draining,
            Self::Context { source, .. } => source.kind(),
        }
    }

    /// Wraps this error with a higher-level context line.
    pub fn with_context(self, context: impl Into<String>) -> Self {
        Self::Context { context: context.into(), source: Box::new(self) }
    }

    /// The root cause, unwrapping every [`RrsError::Context`] layer.
    pub fn root_cause(&self) -> &RrsError {
        match self {
            Self::Context { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for RrsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParam { message, .. } => f.write_str(message),
            Self::ShapeMismatch { context, expected, actual } => {
                write!(f, "{context}: expected {expected}, got {actual}")
            }
            Self::NonFinite { context, index } => {
                write!(f, "non-finite value in {context} at index {index}")
            }
            Self::WorkerPanicked { band, payload } => {
                write!(f, "worker band {band} panicked: {payload}")
            }
            Self::CorruptSnapshot { detail } => write!(f, "corrupt snapshot: {detail}"),
            Self::Io(e) => write!(f, "I/O failure: {e}"),
            Self::Cancelled => f.write_str("request cancelled by caller"),
            Self::DeadlineExceeded => f.write_str("request deadline exceeded"),
            Self::BudgetExceeded { what, required_bytes, max_bytes } => write!(
                f,
                "{what} requires {required_bytes} bytes, exceeding the byte budget of {max_bytes}"
            ),
            Self::FaultInjected { site, index } => {
                write!(f, "injected fault at {site}[{index}]")
            }
            Self::Unavailable { detail } => write!(f, "endpoint unavailable: {detail}"),
            Self::Draining => f.write_str("endpoint draining: retry another endpoint"),
            Self::Context { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl StdError for RrsError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for RrsError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Lets `try_*` results flow through `?` in functions returning
/// `io::Result`: workspace errors become `InvalidData` I/O errors with
/// the [`RrsError`] preserved as the payload (recoverable via
/// [`io::Error::get_ref`]). A wrapped I/O failure passes through with its
/// original kind.
impl From<RrsError> for io::Error {
    fn from(e: RrsError) -> Self {
        match e {
            RrsError::Io(inner) => inner,
            other => io::Error::new(io::ErrorKind::InvalidData, other),
        }
    }
}

/// Context chaining for `Result<T, RrsError>` (and any error convertible
/// into [`RrsError`]).
pub trait ResultExt<T> {
    /// Wraps the error, if any, with a fixed context line.
    fn context(self, context: impl Into<String>) -> Result<T, RrsError>;

    /// Wraps the error, if any, with a lazily built context line.
    fn with_context<F: FnOnce() -> String>(self, f: F) -> Result<T, RrsError>;
}

impl<T, E: Into<RrsError>> ResultExt<T> for Result<T, E> {
    fn context(self, context: impl Into<String>) -> Result<T, RrsError> {
        self.map_err(|e| e.into().with_context(context))
    }

    fn with_context<F: FnOnce() -> String>(self, f: F) -> Result<T, RrsError> {
        self.map_err(|e| e.into().with_context(f()))
    }
}

/// Scans a slice for the first non-finite sample; `Ok` when all are
/// finite. The shared guard behind every renderer/writer's NonFinite
/// rejection.
pub fn ensure_all_finite(context: &'static str, data: &[f64]) -> Result<(), RrsError> {
    match data.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(index) => Err(RrsError::non_finite(context, index)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_legacy_messages() {
        let e = RrsError::invalid_param("clx", "clx must be finite and positive, got 0");
        assert_eq!(e.to_string(), "clx must be finite and positive, got 0");
        assert_eq!(e.kind(), ErrorKind::InvalidParam);
    }

    #[test]
    fn shape_mismatch_formats_both_shapes() {
        let e = RrsError::shape_mismatch("grid data length must be nx*ny", 12, 7);
        assert_eq!(e.to_string(), "grid data length must be nx*ny: expected 12, got 7");
        assert_eq!(e.kind(), ErrorKind::ShapeMismatch);
    }

    #[test]
    fn context_chains_and_kind_penetrates() {
        let e = RrsError::corrupt_snapshot("checksum mismatch")
            .with_context("loading tile 7")
            .with_context("resume");
        assert_eq!(e.to_string(), "resume: loading tile 7: corrupt snapshot: checksum mismatch");
        assert_eq!(e.kind(), ErrorKind::CorruptSnapshot);
        assert!(matches!(e.root_cause(), RrsError::CorruptSnapshot { .. }));
        // source() walks one layer at a time.
        let s1 = e.source().expect("one layer");
        assert!(s1.to_string().starts_with("loading tile 7"));
    }

    #[test]
    fn result_ext_context_on_io() {
        let r: Result<(), io::Error> =
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short read"));
        let e = r.context("reading snapshot").unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Io);
        assert!(e.to_string().contains("reading snapshot"));
        assert!(e.to_string().contains("short read"));
    }

    #[test]
    fn io_round_trip_preserves_payload() {
        let e = RrsError::non_finite("PGM render input", 3);
        let io_err: io::Error = e.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("non-finite"));
        // A wrapped I/O error unwraps to its original kind, not InvalidData.
        let orig = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        let back: io::Error = RrsError::from(orig).into();
        assert_eq!(back.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn worker_panicked_extracts_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        let e = RrsError::worker_panicked(2, s.as_ref());
        assert_eq!(e.to_string(), "worker band 2 panicked: boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(format!("band died"));
        let e = RrsError::worker_panicked(0, s.as_ref());
        assert!(e.to_string().contains("band died"));
        let s: Box<dyn std::any::Any + Send> = Box::new(17u32);
        let e = RrsError::worker_panicked(1, s.as_ref());
        assert!(e.to_string().contains("non-string"));
    }

    #[test]
    fn fault_injected_names_site_and_index() {
        let e = RrsError::fault_injected("fft_tile", 3);
        assert_eq!(e.to_string(), "injected fault at fft_tile[3]");
        assert_eq!(e.kind(), ErrorKind::FaultInjected);
        let wrapped = e.with_context("convolving window");
        assert_eq!(wrapped.kind(), ErrorKind::FaultInjected);
        assert!(wrapped.to_string().contains("fft_tile[3]"));
    }

    #[test]
    fn unavailable_and_draining_are_typed_and_retryable() {
        let e = RrsError::unavailable("connect to 10.0.0.7:4100 timed out");
        assert_eq!(e.kind(), ErrorKind::Unavailable);
        assert_eq!(e.to_string(), "endpoint unavailable: connect to 10.0.0.7:4100 timed out");
        assert!(e.kind().is_retryable());
        let d = RrsError::Draining;
        assert_eq!(d.kind(), ErrorKind::Draining);
        assert!(d.kind().is_retryable());
        assert!(d.to_string().contains("draining"));
        // Request-shaped failures must never be retryable.
        for kind in [
            ErrorKind::InvalidParam,
            ErrorKind::BudgetExceeded,
            ErrorKind::Cancelled,
            ErrorKind::DeadlineExceeded,
            ErrorKind::CorruptSnapshot,
        ] {
            assert!(!kind.is_retryable(), "{kind:?} must not be retryable");
        }
    }

    #[test]
    fn ensure_all_finite_reports_first_offender() {
        assert!(ensure_all_finite("x", &[1.0, 2.0]).is_ok());
        assert!(ensure_all_finite("x", &[]).is_ok());
        let e = ensure_all_finite("x", &[0.0, f64::NAN, f64::INFINITY]).unwrap_err();
        match e {
            RrsError::NonFinite { index, .. } => assert_eq!(index, 1),
            other => panic!("wrong variant {other:?}"),
        }
        assert!(ensure_all_finite("x", &[f64::NEG_INFINITY]).is_err());
    }
}
