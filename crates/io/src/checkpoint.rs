//! Crash-safe checkpoints for streaming generation.
//!
//! A sequential strip stream (`rrs-surface`'s `StripGenerator`) is fully
//! determined by `(seed, height, cursor)`: the noise lattice is a pure
//! function of the seed, so a generator rebuilt from the same spectrum and
//! seed, `seek`ed to the saved cursor, continues the *identical* surface.
//! This module pins that resumable state to a tiny self-validating record:
//!
//! ```text
//! magic   "RRSCKPT1"  (8 bytes)
//! seed    u64
//! height  u64   — transverse extent ny of the stream
//! cursor  i64   — x position of the next strip
//! crc     u64   — FNV-1a over the 24 state bytes
//! ```
//!
//! All fields little-endian; 40 bytes total. The checksum makes a torn or
//! corrupted checkpoint detectable, so a crashed run falls back to the
//! previous good checkpoint instead of silently resuming from garbage.

use crate::atomic::AtomicFile;
use crate::retry::{RetryPolicy, ThreadSleeper};
use crate::snapshot::read_u64_le;
use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, RrsError};
use rrs_grid::fnv1a;
use rrs_obs::{stage, Recorder};
use std::io::{Read, Write};
use std::path::Path;

/// The 8-byte magic prefix identifying a stream checkpoint (format v1).
pub const MAGIC: &[u8; 8] = b"RRSCKPT1";

/// Byte length of a serialised checkpoint.
pub const CHECKPOINT_LEN: usize = 40;

/// The complete resumable state of a sequential strip stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Seed of the backing noise lattice.
    pub seed: u64,
    /// Transverse extent `ny` of the stream.
    pub height: u64,
    /// `x` position of the next strip to generate.
    pub cursor: i64,
}

/// Serialises a checkpoint. Write failures surface as [`RrsError::Io`].
pub fn write_checkpoint<W: Write>(mut w: W, cp: &StreamCheckpoint) -> Result<(), RrsError> {
    let mut buf = [0u8; CHECKPOINT_LEN];
    buf[..8].copy_from_slice(MAGIC);
    buf[8..16].copy_from_slice(&cp.seed.to_le_bytes());
    buf[16..24].copy_from_slice(&cp.height.to_le_bytes());
    buf[24..32].copy_from_slice(&cp.cursor.to_le_bytes());
    let crc = fnv1a(&buf[8..32]);
    buf[32..40].copy_from_slice(&crc.to_le_bytes());
    w.write_all(&buf)?;
    Ok(())
}

/// Writes a checkpoint to `path` crash-atomically: the record goes to a
/// tmp file first, is fsynced, and only then renamed over `path`, so a
/// crash mid-write can never replace a good checkpoint with a torn one —
/// the previous checkpoint survives intact. The write and the durability
/// barrier are timed separately into `obs` (`checkpoint/write`,
/// `checkpoint/fsync` — the latter covering fsync + rename) and bytes
/// counted (`checkpoint/bytes`) — fsync dominates on most filesystems,
/// and this split makes that visible in resume benchmarks.
pub fn write_checkpoint_file<P: AsRef<Path>>(
    path: P,
    cp: &StreamCheckpoint,
    obs: &Recorder,
) -> Result<(), RrsError> {
    let span = obs.start(stage::CHECKPOINT_WRITE);
    let mut af = AtomicFile::create(path)?;
    write_checkpoint(af.writer(), cp)?;
    obs.finish(span);
    let span = obs.start(stage::CHECKPOINT_FSYNC);
    af.commit()?;
    obs.finish(span);
    obs.add_counter(stage::CHECKPOINT_BYTES, CHECKPOINT_LEN as u64);
    Ok(())
}

/// [`write_checkpoint_file`] wrapped in a [`RetryPolicy`] under a
/// [`Budget`] and a [`ChaosInjector`]: transient I/O faults (a
/// briefly-full disk, an injected `failpoints` fault) are retried with
/// deterministic exponential backoff before the stream gives up, and
/// every attempt is visible in the obs report (`retry/attempts`,
/// `retry/backoff`). Each attempt is itself atomic, so a failed attempt
/// never corrupts the previous checkpoint. Backoffs are clamped against
/// the budget's deadline (see [`RetryPolicy::run`]); pass
/// [`Budget::unlimited`] and [`ChaosInjector::disabled`] for a plain
/// retrying write. The injector's [`FaultSite::CheckpointWrite`] site is
/// polled (contained) before every write attempt, so an injected panic
/// surfaces as a typed [`RrsError::WorkerPanicked`] while the previous
/// checkpoint on disk stays intact.
pub fn write_checkpoint_file_resilient<P: AsRef<Path>>(
    path: P,
    cp: &StreamCheckpoint,
    policy: RetryPolicy,
    obs: &Recorder,
    budget: &Budget,
    chaos: &ChaosInjector,
) -> Result<(), RrsError> {
    let path = path.as_ref();
    policy.run(obs, &ThreadSleeper, budget, chaos, &mut || {
        chaos.poll_contained(FaultSite::CheckpointWrite)?;
        write_checkpoint_file(path, cp, obs)
    })
}

/// Reads and validates a checkpoint from `path`.
pub fn read_checkpoint_file<P: AsRef<Path>>(path: P) -> Result<StreamCheckpoint, RrsError> {
    read_checkpoint(std::fs::File::open(path)?)
}

/// Deserialises a checkpoint, verifying length, magic and checksum.
/// Corruption surfaces as [`RrsError::CorruptSnapshot`].
pub fn read_checkpoint<R: Read>(mut r: R) -> Result<StreamCheckpoint, RrsError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let bad = |msg: &str| RrsError::corrupt_snapshot(msg);
    if raw.len() != CHECKPOINT_LEN {
        return Err(bad("checkpoint length is wrong"));
    }
    if &raw[..8] != MAGIC {
        return Err(bad("bad magic"));
    }
    let crc_expect = fnv1a(&raw[8..32]);
    if read_u64_le(&raw, 32) != crc_expect {
        return Err(bad("checksum mismatch"));
    }
    Ok(StreamCheckpoint {
        seed: read_u64_le(&raw, 8),
        height: read_u64_le(&raw, 16),
        cursor: i64::from_le_bytes(raw[24..32].try_into().expect("8-byte slice")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamCheckpoint {
        StreamCheckpoint { seed: 0xDEAD_BEEF_1234_5678, height: 96, cursor: -417 }
    }

    #[test]
    fn round_trip_is_exact() {
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &sample()).unwrap();
        assert_eq!(buf.len(), CHECKPOINT_LEN);
        assert_eq!(read_checkpoint(buf.as_slice()).unwrap(), sample());
    }

    #[test]
    fn negative_cursor_round_trips() {
        let cp = StreamCheckpoint { seed: 1, height: 1, cursor: i64::MIN };
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &cp).unwrap();
        assert_eq!(read_checkpoint(buf.as_slice()).unwrap(), cp);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let mut clean = Vec::new();
        write_checkpoint(&mut clean, &sample()).unwrap();
        for bit in 0..clean.len() * 8 {
            let mut buf = clean.clone();
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(
                read_checkpoint(buf.as_slice()).is_err(),
                "bit {bit} flip went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &sample()).unwrap();
        for keep in 0..buf.len() {
            let err = read_checkpoint(&buf[..keep]).unwrap_err();
            assert!(err.to_string().contains("corrupt snapshot"), "keep={keep}: {err}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        let err = read_checkpoint(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn retrying_write_succeeds_first_try_with_one_counted_attempt() {
        let path = std::env::temp_dir()
            .join(format!("rrs_ckpt_retry_{}.bin", std::process::id()));
        let rec = Recorder::enabled();
        write_checkpoint_file_resilient(
            &path,
            &sample(),
            RetryPolicy::default(),
            &rec,
            &Budget::unlimited(),
            &ChaosInjector::disabled(),
        )
        .unwrap();
        let got = read_checkpoint_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(got, sample());
        assert_eq!(rec.report().counter(stage::RETRY_ATTEMPTS), 1);
    }

    #[test]
    fn atomic_write_replaces_previous_checkpoint_without_tmp_leftovers() {
        let dir = std::env::temp_dir()
            .join(format!("rrs_ckpt_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.ckpt");
        write_checkpoint_file(&path, &sample(), &Recorder::disabled()).unwrap();
        let newer = StreamCheckpoint { cursor: sample().cursor + 64, ..sample() };
        write_checkpoint_file(&path, &newer, &Recorder::disabled()).unwrap();
        assert_eq!(read_checkpoint_file(&path).unwrap(), newer);
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(stray.is_empty(), "tmp files leaked: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fault_leaves_previous_checkpoint_intact() {
        use rrs_chaos::{FaultKind, FaultSchedule};
        use rrs_error::ErrorKind;
        let path = std::env::temp_dir()
            .join(format!("rrs_ckpt_chaos_{}.bin", std::process::id()));
        write_checkpoint_file(&path, &sample(), &Recorder::disabled()).unwrap();
        let newer = StreamCheckpoint { cursor: sample().cursor + 64, ..sample() };

        // An Error fault at the first CheckpointWrite visit: the write
        // never starts, the error is typed, and the old record survives.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(7).with_fault(FaultSite::CheckpointWrite, FaultKind::Error, 0),
        );
        let err = write_checkpoint_file_resilient(
            &path,
            &newer,
            RetryPolicy::default(),
            &Recorder::disabled(),
            &Budget::unlimited(),
            &chaos,
        )
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::FaultInjected);
        assert_eq!(read_checkpoint_file(&path).unwrap(), sample());

        // A Panic fault is contained to WorkerPanicked; same guarantee.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(8).with_fault(FaultSite::CheckpointWrite, FaultKind::Panic, 0),
        );
        let err = write_checkpoint_file_resilient(
            &path,
            &newer,
            RetryPolicy::default(),
            &Recorder::disabled(),
            &Budget::unlimited(),
            &chaos,
        )
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WorkerPanicked);
        assert_eq!(read_checkpoint_file(&path).unwrap(), sample());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observed_file_round_trip_reports_write_and_fsync() {
        let path = std::env::temp_dir()
            .join(format!("rrs_ckpt_obs_{}.bin", std::process::id()));
        let rec = Recorder::enabled();
        write_checkpoint_file(&path, &sample(), &rec).unwrap();
        let got = read_checkpoint_file(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(got, sample());
        let report = rec.report();
        assert_eq!(report.counter(stage::CHECKPOINT_BYTES), CHECKPOINT_LEN as u64);
        assert_eq!(report.durations[stage::CHECKPOINT_WRITE].count, 1);
        assert_eq!(report.durations[stage::CHECKPOINT_FSYNC].count, 1);
    }
}
