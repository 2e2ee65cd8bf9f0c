//! Surface import/export.
//!
//! The reproduction harness renders every paper figure to disk; this crate
//! supplies the formats:
//!
//! * [`csv`] — `x,y,height` long format and plain matrix CSV;
//! * [`gnuplot`] — whitespace matrix blocks consumable by gnuplot's
//!   `splot ... matrix`;
//! * [`image`] — 8-bit PGM heightmaps and PPM renders with a perceptual
//!   colour ramp (enough to eyeball Figures 1–4 without a plotting stack);
//! * [`snapshot`] — an exact binary round-trip format (magic + shape +
//!   little-endian `f64`s + FNV-1a checksum), hand-rolled on `std` alone;
//! * [`checkpoint`] — the 40-byte crash-safe resume record for streaming
//!   strip generation;
//! * [`atomic`] — the tmp + fsync + rename protocol every path-based
//!   writer above routes through, so a crash or injected fault mid-export
//!   never leaves a torn file at the final path;
//! * [`retry`] — deterministic bounded retry with exponential backoff for
//!   durable writes, with an injectable [`retry::Sleeper`] so fault-
//!   injection tests run instantly.
//!
//! The snapshot, checkpoint, CSV and image writers and the snapshot and
//! checkpoint readers have one signature each, returning
//! `Result<_, `[`RrsError`]`>` with no `io::Result` twin (the stream
//! writers and the snapshot reader keep their `try_` prefix). Decoders
//! fail *closed*: a corrupt or hostile input is
//! always an error, never a panic and never unflagged garbage (the
//! `failpoints` feature compiles the `fault` harness that proves this).

#![warn(missing_docs)]

pub mod atomic;
pub mod checkpoint;
pub mod csv;
#[cfg(feature = "failpoints")]
pub mod fault;
pub mod gnuplot;
pub mod image;
pub mod retry;
pub mod snapshot;

pub use atomic::{write_atomic, AtomicFile};
pub use checkpoint::{
    read_checkpoint, read_checkpoint_file, write_checkpoint, write_checkpoint_file,
    write_checkpoint_file_resilient, StreamCheckpoint,
};
pub use csv::{read_matrix_csv, try_write_matrix_csv, try_write_xyz_csv};
pub use gnuplot::write_gnuplot_matrix;
pub use image::{try_write_pgm, try_write_ppm};
pub use retry::{RetryPolicy, Sleeper, ThreadSleeper};
pub use rrs_error::RrsError;
pub use snapshot::{
    try_read_snapshot, try_write_snapshot, try_write_snapshot_file, try_write_snapshot_observed,
};
