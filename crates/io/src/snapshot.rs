//! Exact binary snapshots of height fields.
//!
//! Format v2 (all little-endian):
//!
//! ```text
//! magic  "RRSSNAP2"  (8 bytes)
//! nx     u64
//! ny     u64
//! data   nx·ny × f64, row-major
//! crc    u64  — rrs_num::word_checksum over nx, ny and the data bytes
//! ```
//!
//! Format v1 (`"RRSSNAP1"`) has the same layout, but its checksum is
//! byte-wise FNV-1a over the data bytes alone. It is still read, so files
//! written before v2 stay loadable, and never written: FNV-1a takes one
//! dependent multiply per byte, the four-lane word checksum an eighth of
//! one.
//!
//! Round-trips bit-exactly; the checksum catches truncation and
//! corruption. Hand-rolled on `std` only: fields are encoded with
//! `to_le_bytes`/`from_le_bytes`, so the format is pinned in this file
//! rather than behind a third-party serialisation layer.

use rrs_error::RrsError;
use rrs_grid::{fnv1a, word_checksum, Grid2, WordChecksum};
use rrs_obs::{stage, Recorder};
use std::io::{Read, Write};

/// The 8-byte magic prefix of the snapshots this crate writes (format v2).
pub const MAGIC: &[u8; 8] = b"RRSSNAP2";

/// The magic of format v1, checksummed with FNV-1a over the data bytes
/// alone: read, never written.
const MAGIC_V1: &[u8; 8] = b"RRSSNAP1";

/// Byte length of the fixed header: magic + `nx` + `ny`.
pub const HEADER_LEN: usize = 24;

/// Bytes of samples encoded at a time by [`try_write_snapshot`].
const CHUNK: usize = 8192;

/// Serialises a grid to the snapshot format. Write failures surface as
/// [`RrsError::Io`].
///
/// Samples are encoded through a fixed 8 KiB buffer, checksummed and
/// written chunk by chunk, so no copy of the whole snapshot is made.
pub fn try_write_snapshot<W: Write>(mut w: W, grid: &Grid2<f64>) -> Result<(), RrsError> {
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC);
    header[8..16].copy_from_slice(&(grid.nx() as u64).to_le_bytes());
    header[16..].copy_from_slice(&(grid.ny() as u64).to_le_bytes());
    let mut crc = WordChecksum::new();
    crc.update(&header[MAGIC.len()..]);
    w.write_all(&header)?;
    let mut chunk = [0u8; CHUNK];
    for samples in grid.as_slice().chunks(CHUNK / 8) {
        let bytes = &mut chunk[..samples.len() * 8];
        for (b, v) in bytes.chunks_exact_mut(8).zip(samples) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        crc.update(bytes);
        w.write_all(bytes)?;
    }
    w.write_all(&crc.finish().to_le_bytes())?;
    Ok(())
}

/// [`try_write_snapshot`] with the whole export (serialise + write)
/// timed as one `export/snapshot` observation.
pub fn try_write_snapshot_observed<W: Write>(
    w: W,
    grid: &Grid2<f64>,
    obs: &Recorder,
) -> Result<(), RrsError> {
    obs.time(stage::EXPORT_SNAPSHOT, || try_write_snapshot(w, grid))
}

/// Writes a snapshot to `path` crash-atomically (tmp + fsync + rename),
/// timed as one `export/snapshot` observation: a crash or fault
/// mid-export can never leave a torn snapshot at `path` — the previous
/// file, if any, survives intact.
pub fn try_write_snapshot_file<P: AsRef<std::path::Path>>(
    path: P,
    grid: &Grid2<f64>,
    obs: &Recorder,
) -> Result<(), RrsError> {
    obs.time(stage::EXPORT_SNAPSHOT, || {
        crate::atomic::write_atomic(path, |w| try_write_snapshot(w, grid))
    })
}

pub(crate) fn read_u64_le(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte slice"))
}

/// Deserialises a snapshot of either format, verifying magic, shape and
/// checksum: corruption surfaces as [`RrsError::CorruptSnapshot`], read
/// failures as [`RrsError::Io`].
///
/// The declared shape is validated against the remaining payload with
/// overflow-checked arithmetic *before* any data allocation, so a hostile
/// header can neither trigger a huge allocation nor a slice panic.
pub fn try_read_snapshot<R: Read>(mut r: R) -> Result<Grid2<f64>, RrsError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    let bad = |msg: &str| RrsError::corrupt_snapshot(msg);
    if raw.len() < HEADER_LEN {
        return Err(bad("snapshot too short"));
    }
    let v1 = match &raw[..8] {
        m if m == MAGIC => false,
        m if m == MAGIC_V1 => true,
        _ => return Err(bad("bad magic")),
    };
    let nx = read_u64_le(&raw, 8) as usize;
    let ny = read_u64_le(&raw, 16) as usize;
    // Both the element count and the byte length are overflow-checked, and
    // checked against what was actually read before the data Vec exists.
    let n = nx.checked_mul(ny).ok_or_else(|| bad("shape overflow"))?;
    let expect_len = n
        .checked_mul(8)
        .and_then(|b| b.checked_add(8))
        .ok_or_else(|| bad("shape overflow"))?;
    if raw.len() - HEADER_LEN != expect_len {
        return Err(bad("snapshot length does not match shape"));
    }
    let data_end = HEADER_LEN + n * 8;
    let data_bytes = &raw[HEADER_LEN..data_end];
    let crc_expect = if v1 { fnv1a(data_bytes) } else { word_checksum(&raw[MAGIC.len()..data_end]) };
    if read_u64_le(&raw, data_end) != crc_expect {
        return Err(bad("checksum mismatch"));
    }
    let data: Vec<f64> = data_bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    Grid2::try_from_vec(nx, ny, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bit_exact() {
        let g = Grid2::from_fn(17, 9, |x, y| {
            (x as f64).sin() * (y as f64).exp() / 3.0 - 0.123456789012345
        });
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &g).unwrap();
        let back = try_read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn special_values_round_trip() {
        let g = Grid2::from_vec(2, 2, vec![f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e-308]);
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &g).unwrap();
        let back = try_read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(back.as_slice()[0], f64::INFINITY);
        assert_eq!(back.as_slice()[1], f64::NEG_INFINITY);
        assert_eq!(back.as_slice()[3], 1e-308);
    }

    #[test]
    fn empty_grid_round_trips() {
        let g = Grid2::zeros(0, 0);
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &g).unwrap();
        let back = try_read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(back.shape(), (0, 0));
    }

    #[test]
    fn corruption_is_detected() {
        let g = Grid2::from_fn(8, 8, |x, y| (x + y) as f64);
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &g).unwrap();
        // Flip one data byte.
        let idx = HEADER_LEN + 13;
        buf[idx] ^= 0x40;
        let err = try_read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncation_is_detected() {
        let g = Grid2::from_fn(4, 4, |x, _| x as f64);
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &g).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(try_read_snapshot(buf.as_slice()).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &Grid2::zeros(2, 2)).unwrap();
        buf[0] = b'X';
        let err = try_read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    /// `grid` in the v1 layout, built byte by byte: FNV-1a over the data
    /// bytes alone.
    fn v1_bytes(grid: &Grid2<f64>) -> Vec<u8> {
        let mut data = Vec::new();
        for &v in grid.as_slice() {
            data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut buf = b"RRSSNAP1".to_vec();
        buf.extend_from_slice(&(grid.nx() as u64).to_le_bytes());
        buf.extend_from_slice(&(grid.ny() as u64).to_le_bytes());
        buf.extend_from_slice(&data);
        buf.extend_from_slice(&fnv1a(&data).to_le_bytes());
        buf
    }

    #[test]
    fn v1_snapshots_still_read_bit_exactly_and_fail_closed() {
        let g = Grid2::from_fn(5, 3, |x, y| (x as f64 * 0.7).cos() - y as f64 / 9.0);
        let v1 = v1_bytes(&g);
        let back = try_read_snapshot(v1.as_slice()).unwrap();
        assert!(back.as_slice().iter().zip(g.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(back.shape(), (5, 3));

        let mut flipped = v1.clone();
        flipped[HEADER_LEN + 8 * 7 + 2] ^= 0x10;
        let err = try_read_snapshot(flipped.as_slice()).unwrap_err();
        assert_eq!(err.kind(), rrs_error::ErrorKind::CorruptSnapshot, "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn v2_writes_its_own_magic_and_its_checksum_covers_the_shape() {
        let g = Grid2::from_fn(4, 2, |x, y| (x * 10 + y) as f64);
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &g).unwrap();
        assert_eq!(&buf[..8], MAGIC);
        assert_eq!(buf.len(), v1_bytes(&g).len(), "v1 and v2 share one layout");
        // Relabel the grid 2×4: same length, same data bytes. v1's
        // checksum sees no change; v2's covers nx and ny.
        let transpose = |b: &mut Vec<u8>| {
            b[8..16].copy_from_slice(&2u64.to_le_bytes());
            b[16..24].copy_from_slice(&4u64.to_le_bytes());
        };
        let mut v1 = v1_bytes(&g);
        transpose(&mut v1);
        assert_eq!(try_read_snapshot(v1.as_slice()).unwrap().shape(), (2, 4));
        transpose(&mut buf);
        let err = try_read_snapshot(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn hostile_header_cannot_force_huge_allocation() {
        // A tiny valid snapshot whose header claims an absurd shape must
        // be rejected by the length check before any data allocation —
        // including shapes where nx·ny or nx·ny·8 overflow usize.
        let mut buf = Vec::new();
        try_write_snapshot(&mut buf, &Grid2::zeros(2, 2)).unwrap();
        for (nx, ny) in [
            (u64::MAX, u64::MAX),        // nx·ny overflows
            (u64::MAX / 4, 2),           // nx·ny fits, ·8 overflows
            (1 << 40, 1),                // huge but representable
            (3, 3),                      // plausible but wrong
        ] {
            let mut hostile = buf.clone();
            hostile[8..16].copy_from_slice(&nx.to_le_bytes());
            hostile[16..24].copy_from_slice(&ny.to_le_bytes());
            let err = try_read_snapshot(hostile.as_slice()).unwrap_err();
            assert_eq!(
                err.kind(),
                rrs_error::ErrorKind::CorruptSnapshot,
                "nx={nx} ny={ny}: {err}"
            );
        }
    }
}
