//! The serving wire codec: framing, request/response payloads, and the
//! stable error-kind numbering.
//!
//! Every message on a serving connection is one frame:
//!
//! ```text
//! magic  b"RRS2"                      4 bytes
//! kind   FrameKind                    1 byte
//! len    payload length, u32 LE       4 bytes
//! payload                             len bytes
//! crc    word checksum, u64 LE        8 bytes
//!        = word_checksum_extend(word_checksum(kind ‖ len), payload)
//! ```
//!
//! The framing discipline mirrors the checkpoint codec: a magic prefix so
//! a stray connection fails immediately, an explicit length so the reader
//! can refuse oversized frames *before* allocating, and a trailing
//! checksum over everything after the magic so a flipped bit anywhere in
//! the frame fails closed with a typed [`RrsError::CorruptSnapshot`]
//! instead of decoding garbage. The checksum is `rrs_num`'s four-lane
//! word checksum (`rrs_grid::word_checksum`), taken over the 5-byte
//! header and then carried on over the payload: it reads eight bytes a
//! step where byte-wise FNV-1a reads one, and still catches every change
//! confined to one byte, or to one aligned word of the payload's whole
//! 32-byte blocks. The first framing, magic `b"RRSF"` with an FNV-1a
//! checksum, is retired: its frames fail the magic check like any other
//! bad magic. Payload integers are little-endian; floats travel as
//! IEEE-754 bit patterns so a request is reproduced bit-exactly on the
//! far side.
//!
//! Decoding is validating: a [`GenerateRequest`] only constructs through
//! the same `try_new` constructors the library itself uses
//! ([`SurfaceParams::try_new`], [`PowerLaw::try_new`],
//! [`Window::try_new`]), so no malformed parameter survives past the
//! codec boundary.

use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{ErrorKind, RrsError};
use rrs_grid::{word_checksum, word_checksum_extend, Grid2, Window};
use rrs_spectrum::{PowerLaw, SpectrumModel, SurfaceParams};
use rrs_surface::ConvBackend;
use std::io::{Read, Write};
use std::time::Duration;

/// Frame prefix — "RRS framing, version 2".
pub const MAGIC: [u8; 4] = *b"RRS2";

/// Hard ceiling on a frame payload (256 MiB), checked against the
/// declared length *before* any allocation.
pub const MAX_FRAME_PAYLOAD: usize = 256 << 20;

/// Byte-wise 64-bit FNV-1a. Not the framing checksum: it hashes the
/// shard key and, in [`crate::ShardedClient`], the endpoint addresses, so
/// it stays fixed to keep every key on its endpoint.
pub use rrs_grid::fnv1a;

/// The message kinds of the serving protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: one [`GenerateRequest`].
    Generate = 1,
    /// Server → client: a generated window ([`GenerateOk`]).
    GenerateOk = 2,
    /// Server → client: a typed failure ([`GenerateErr`]).
    GenerateErr = 3,
    /// Server → client: admission control rejected the request before
    /// any work was queued ([`Overloaded`]).
    Overloaded = 4,
    /// Client → server: request the metrics report (empty payload).
    Metrics = 5,
    /// Server → client: the [`rrs_obs::report::ObsReport`] as UTF-8 JSON.
    MetricsReport = 6,
    /// Client → server: liveness probe (empty payload).
    Ping = 7,
    /// Server → client: liveness reply (empty payload).
    Pong = 8,
}

impl FrameKind {
    fn from_u8(v: u8) -> Result<Self, RrsError> {
        Ok(match v {
            1 => Self::Generate,
            2 => Self::GenerateOk,
            3 => Self::GenerateErr,
            4 => Self::Overloaded,
            5 => Self::Metrics,
            6 => Self::MetricsReport,
            7 => Self::Ping,
            8 => Self::Pong,
            other => {
                return Err(RrsError::corrupt_snapshot(format!("unknown frame kind {other}")))
            }
        })
    }
}

/// The frame checksum: the header, then on over the payload.
fn frame_checksum(head: &[u8; 5], payload: &[u8]) -> u64 {
    word_checksum_extend(word_checksum(head), payload)
}

/// Assembles one complete frame (magic, header, payload, checksum) as a
/// contiguous byte buffer, ready for a single `write_all`.
fn encode_frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD, "oversized frame");
    let len = payload.len() as u32;
    let mut head = [0u8; 5];
    head[0] = kind as u8;
    head[1..5].copy_from_slice(&len.to_le_bytes());
    let crc = frame_checksum(&head, payload);
    let mut frame = Vec::with_capacity(17 + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&head);
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// The inner payload of a read-deadline error that struck while the
/// stream sat at a frame boundary: zero bytes of the next frame were
/// consumed, so the stream is still decodable if the caller keeps
/// reading. Detected through [`timed_out_at_boundary`].
#[derive(Debug)]
struct BoundaryTimeout(std::io::Error);

impl std::fmt::Display for BoundaryTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "read deadline at frame boundary: {}", self.0)
    }
}

impl std::error::Error for BoundaryTimeout {}

/// True for the `read` errors a socket read deadline produces
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout_io(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// True when `e` is a read-deadline error that fired with the stream
/// parked at a frame boundary — no byte of a frame consumed. Such a
/// connection is still framing-clean: a server may keep it alive while
/// responses are in flight instead of reaping it as a slow-loris peer.
/// A deadline that fired mid-frame never carries the marker.
pub fn timed_out_at_boundary(e: &RrsError) -> bool {
    match e {
        RrsError::Io(io) => io.get_ref().map_or(false, |inner| inner.is::<BoundaryTimeout>()),
        _ => false,
    }
}

/// Writes one frame. The only I/O errors are the writer's own.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), RrsError> {
    // One contiguous write: a frame split across small TCP segments
    // trips Nagle + delayed-ACK stalls (tens of ms per round trip).
    w.write_all(&encode_frame_bytes(kind, payload)).map_err(RrsError::Io)?;
    w.flush().map_err(RrsError::Io)?;
    Ok(())
}

/// Reads one frame, failing closed.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between messages). Every other irregularity — EOF mid-frame, a bad
/// magic, an oversized declared length, a checksum mismatch, an unknown
/// kind — is a typed error: the caller never sees a partially decoded
/// frame. The length check happens before the payload buffer is
/// allocated, so a hostile 4 GiB length costs nothing.
///
/// A read-deadline error that fires before the first byte of a frame is
/// marked as a *boundary* timeout ([`timed_out_at_boundary`]): the
/// stream is still framing-clean and the caller may keep reading. A
/// deadline mid-frame stays a plain I/O error — the stream position is
/// unknowable and the connection must close.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(FrameKind, Vec<u8>)>, RrsError> {
    let mut magic = [0u8; 4];
    // The first byte is read alone: a deadline that strikes here struck
    // with zero bytes of the frame consumed — the recoverable case the
    // boundary marker records. From the second byte on, a timeout is a
    // mid-frame stall.
    match read_exact_or_eof(r, &mut magic[..1]) {
        Ok(ReadOutcome::Eof) => return Ok(None),
        Ok(ReadOutcome::Full) => {}
        Err(RrsError::Io(io)) if is_timeout_io(&io) => {
            let kind = io.kind();
            return Err(RrsError::Io(std::io::Error::new(kind, BoundaryTimeout(io))));
        }
        Err(e) => return Err(e),
    }
    read_fully(r, &mut magic[1..])?;
    if magic != MAGIC {
        return Err(RrsError::corrupt_snapshot(format!(
            "bad frame magic {magic:02x?}, expected {MAGIC:02x?}"
        )));
    }
    let mut head = [0u8; 5];
    read_fully(r, &mut head)?;
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(RrsError::corrupt_snapshot(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte ceiling"
        )));
    }
    let mut payload = vec![0u8; len];
    read_fully(r, &mut payload)?;
    let mut crc_bytes = [0u8; 8];
    read_fully(r, &mut crc_bytes)?;
    if frame_checksum(&head, &payload) != u64::from_le_bytes(crc_bytes) {
        return Err(RrsError::corrupt_snapshot("frame checksum mismatch"));
    }
    let kind = FrameKind::from_u8(head[0])?;
    Ok(Some((kind, payload)))
}

// ---------------------------------------------------------------------------
// Chaos transport seam
// ---------------------------------------------------------------------------
//
// Every serving frame crosses the wire through these two functions when
// a `ChaosInjector` is armed, so a seeded `FaultSchedule` can kill a
// connection mid-frame, stall an exchange past a peer's deadline, or
// hang up cleanly at an exact visit index — with the same replayability
// as every compute-pipeline site. The `FaultKind` mapping at wire sites:
//
// | kind       | read side                         | write side                           |
// |------------|-----------------------------------|--------------------------------------|
// | `Error`    | connection reset before the read  | **truncated prefix** written, reset  |
// | `Cancel`   | clean peer hang-up (`Ok(None)`)   | broken pipe before any byte          |
// | `Deadline` | stall `CHAOS_STALL`, then read    | stall `CHAOS_STALL`, then write      |
// | `Panic`    | contained → connection aborted    | contained → connection aborted       |
//
// The mid-frame truncation on `Error` writes is what makes the peer
// observe a genuine torn frame ("connection closed mid-frame") instead
// of a tidy error the codec never sees in production.

/// How long a [`rrs_chaos::FaultKind::Deadline`] fault stalls the wire
/// (a frame read or write, or the server's accept).
pub const CHAOS_STALL: Duration = Duration::from_millis(200);

/// Maps a fired wire fault into the transport error the peerless side
/// sees. `Cancel` is handled by the callers (it has per-direction
/// semantics); everything else is an I/O-shaped failure.
fn wire_fault_to_io(e: RrsError, what: &str) -> RrsError {
    let kind = match e.kind() {
        ErrorKind::FaultInjected => std::io::ErrorKind::ConnectionReset,
        _ => std::io::ErrorKind::ConnectionAborted,
    };
    RrsError::Io(std::io::Error::new(kind, format!("chaos: injected {what} failure: {e}")))
}

/// [`read_frame`] behind the chaos seam: polls
/// [`FaultSite::FrameRead`] before touching the stream. Disabled
/// injectors cost one discriminant test.
pub fn read_frame_chaos(
    r: &mut impl Read,
    chaos: &ChaosInjector,
) -> Result<Option<(FrameKind, Vec<u8>)>, RrsError> {
    if chaos.is_enabled() {
        match chaos.poll_contained(FaultSite::FrameRead) {
            Ok(()) => {}
            Err(RrsError::Cancelled) => return Ok(None), // clean peer hang-up
            Err(RrsError::DeadlineExceeded) => std::thread::sleep(CHAOS_STALL),
            Err(e) => return Err(wire_fault_to_io(e, "read")),
        }
    }
    read_frame(r)
}

/// [`write_frame`] behind the chaos seam: polls
/// [`FaultSite::FrameWrite`] and, for an injected `Error`, writes a
/// *truncated prefix* of the assembled frame before failing — the peer
/// sees a genuine mid-frame disconnect, not a clean boundary.
pub fn write_frame_chaos(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
    chaos: &ChaosInjector,
) -> Result<(), RrsError> {
    if chaos.is_enabled() {
        match chaos.poll_contained(FaultSite::FrameWrite) {
            Ok(()) => {}
            Err(RrsError::Cancelled) => {
                return Err(RrsError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "chaos: connection closed before the frame",
                )))
            }
            Err(RrsError::DeadlineExceeded) => std::thread::sleep(CHAOS_STALL),
            Err(e @ RrsError::FaultInjected { .. }) => {
                // Deterministic mid-frame kill: half the frame (always at
                // least the magic, never the whole thing) then a reset.
                let frame = encode_frame_bytes(kind, payload);
                let cut = (frame.len() / 2).max(MAGIC.len());
                let _ = w.write_all(&frame[..cut]);
                let _ = w.flush();
                return Err(wire_fault_to_io(e, "write"));
            }
            Err(e) => return Err(wire_fault_to_io(e, "write")),
        }
    }
    write_frame(w, kind, payload)
}

enum ReadOutcome {
    Full,
    Eof,
}

/// Fills `buf`, distinguishing EOF-before-anything from EOF-mid-read.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, RrsError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => return Err(RrsError::corrupt_snapshot("connection closed mid-frame")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(RrsError::Io(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> Result<(), RrsError> {
    match read_exact_or_eof(r, buf)? {
        ReadOutcome::Full => Ok(()),
        ReadOutcome::Eof => Err(RrsError::corrupt_snapshot("connection closed mid-frame")),
    }
}

// ---------------------------------------------------------------------------
// Payload cursor
// ---------------------------------------------------------------------------

/// A bounds-checked payload reader: every short read is a typed
/// [`RrsError::CorruptSnapshot`], and [`Cursor::finish`] rejects
/// trailing bytes so payload lengths cannot silently drift between
/// protocol revisions.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RrsError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            RrsError::corrupt_snapshot(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, RrsError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, RrsError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("take(2)")))
    }

    fn u32(&mut self) -> Result<u32, RrsError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }

    fn u64(&mut self) -> Result<u64, RrsError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    fn i64(&mut self) -> Result<i64, RrsError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    fn f64(&mut self) -> Result<f64, RrsError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(self) -> Result<(), RrsError> {
        if self.pos != self.buf.len() {
            return Err(RrsError::corrupt_snapshot(format!(
                "payload has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Error-kind numbering
// ---------------------------------------------------------------------------

/// Stable on-wire numbering of [`ErrorKind`] — part of the protocol, so
/// the discriminants never change even if the enum is reordered.
pub fn error_kind_to_wire(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::InvalidParam => 1,
        ErrorKind::ShapeMismatch => 2,
        ErrorKind::NonFinite => 3,
        ErrorKind::WorkerPanicked => 4,
        ErrorKind::CorruptSnapshot => 5,
        ErrorKind::Io => 6,
        ErrorKind::Cancelled => 7,
        ErrorKind::DeadlineExceeded => 8,
        ErrorKind::BudgetExceeded => 9,
        ErrorKind::FaultInjected => 10,
        ErrorKind::Unavailable => 11,
        ErrorKind::Draining => 12,
    }
}

/// Inverse of [`error_kind_to_wire`]; unknown numbers fail closed.
pub fn error_kind_from_wire(v: u8) -> Result<ErrorKind, RrsError> {
    Ok(match v {
        1 => ErrorKind::InvalidParam,
        2 => ErrorKind::ShapeMismatch,
        3 => ErrorKind::NonFinite,
        4 => ErrorKind::WorkerPanicked,
        5 => ErrorKind::CorruptSnapshot,
        6 => ErrorKind::Io,
        7 => ErrorKind::Cancelled,
        8 => ErrorKind::DeadlineExceeded,
        9 => ErrorKind::BudgetExceeded,
        10 => ErrorKind::FaultInjected,
        11 => ErrorKind::Unavailable,
        12 => ErrorKind::Draining,
        other => return Err(RrsError::corrupt_snapshot(format!("unknown error kind {other}"))),
    })
}

/// Wire number of a retired backend, `FftComplexSerial` (the complex
/// overlap-save engine). Reserved: it is never reassigned, and a request
/// carrying it is rejected with a typed error.
const RETIRED_FFT_COMPLEX_SERIAL: u8 = 2;

/// The backend's wire number — the one mapping the codec and the
/// kernel key share.
fn backend_to_wire(b: ConvBackend) -> u8 {
    match b {
        ConvBackend::Direct => 0,
        ConvBackend::FftOverlapSave => 1,
        ConvBackend::Auto => 3,
        // `ConvBackend` is non-exhaustive: a future variant must get its
        // own wire number before it can be served.
        _ => panic!("backend {b:?} has no wire encoding"),
    }
}

fn backend_from_wire(v: u8) -> Result<ConvBackend, RrsError> {
    Ok(match v {
        0 => ConvBackend::Direct,
        1 => ConvBackend::FftOverlapSave,
        3 => ConvBackend::Auto,
        // The frame passed its checksum, so this is a well-formed request
        // for an engine this release no longer has, not corruption.
        RETIRED_FFT_COMPLEX_SERIAL => {
            return Err(RrsError::invalid_param(
                "backend",
                "backend 2 (FftComplexSerial) is retired; request FftOverlapSave, Auto or Direct",
            ))
        }
        other => return Err(RrsError::corrupt_snapshot(format!("unknown backend {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Generate request
// ---------------------------------------------------------------------------

/// Per-request execution options (everything beyond the surface itself).
///
/// Zero means "unset": the server substitutes its own defaults. A
/// request with a deadline or byte ceiling runs on a one-off generator
/// carrying that [`rrs_error::Budget`] (still sharing the server's
/// kernel cache and the process-wide FFT plan cache); all other
/// requests run on the cached generator directly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestOptions {
    /// Convolution engine. `Direct` by default — unlike the library,
    /// whose default is [`ConvBackend::Auto`] — so a request with default
    /// options gets the same bits from every release.
    pub backend: ConvBackend,
    /// Worker threads inside the generator; 0 = the server's default
    /// (`rrs_par::default_workers`), which also caps any other value.
    pub workers: u16,
    /// Per-request deadline in milliseconds from processing start; 0 =
    /// none.
    pub deadline_ms: u32,
    /// Per-request byte ceiling fed to `Budget::with_max_bytes`; 0 =
    /// none.
    pub max_bytes: u64,
}

impl Default for RequestOptions {
    fn default() -> Self {
        Self { backend: ConvBackend::Direct, workers: 0, deadline_ms: 0, max_bytes: 0 }
    }
}

/// One surface-generation request — the wire-decodable form of "this
/// spectrum, this seed, this window, these options".
///
/// The spectrum/truncation/sizing/backend/workers fields form the
/// server's coalescing key: concurrent requests agreeing on all of them
/// share one cached kernel and generator, so only the first pays kernel
/// construction and FFT planning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenerateRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Tenant id for quota accounting.
    pub tenant: u64,
    /// Noise-field seed — same seed + same request ⇒ bit-identical
    /// surface, on any server.
    pub seed: u64,
    /// The spectrum family and parameters.
    pub spectrum: SpectrumModel,
    /// Spectral truncation tolerance `0 < ε < 1`, or `None` for the
    /// full kernel.
    pub truncation: Option<f64>,
    /// Kernel support factor in correlation lengths
    /// ([`rrs_surface::KernelSizing::Auto`]).
    pub sizing_factor: f64,
    /// Minimum kernel lattice size per axis.
    pub sizing_min: u32,
    /// Maximum kernel lattice size per axis.
    pub sizing_max: u32,
    /// The output window on the infinite lattice.
    pub window: Window,
    /// Execution options.
    pub options: RequestOptions,
}

impl GenerateRequest {
    /// A request with the library's default sizing (factor 8, 16–2048
    /// samples) and default options.
    pub fn new(request_id: u64, tenant: u64, seed: u64, spectrum: SpectrumModel, window: Window) -> Self {
        Self {
            request_id,
            tenant,
            seed,
            spectrum,
            truncation: None,
            sizing_factor: 8.0,
            sizing_min: 16,
            sizing_max: 2048,
            window,
            options: RequestOptions::default(),
        }
    }

    /// Sets the spectral truncation tolerance.
    pub fn with_truncation(mut self, epsilon: f64) -> Self {
        self.truncation = Some(epsilon);
        self
    }

    /// Sets the auto-sizing envelope.
    pub fn with_sizing(mut self, factor: f64, min: u32, max: u32) -> Self {
        self.sizing_factor = factor;
        self.sizing_min = min;
        self.sizing_max = max;
        self
    }

    /// Selects the convolution backend.
    pub fn with_backend(mut self, backend: ConvBackend) -> Self {
        self.options.backend = backend;
        self
    }

    /// Sets the in-generator worker count (0 = server default, which
    /// also caps it).
    pub fn with_workers(mut self, workers: u16) -> Self {
        self.options.workers = workers;
        self
    }

    /// Arms a per-request deadline in milliseconds.
    pub fn with_deadline_ms(mut self, deadline_ms: u32) -> Self {
        self.options.deadline_ms = deadline_ms;
        self
    }

    /// Arms a per-request byte ceiling.
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.options.max_bytes = max_bytes;
        self
    }

    /// The output bytes this request will materialise (`nx·ny·8`),
    /// widened so quota arithmetic cannot overflow.
    pub fn output_bytes(&self) -> u128 {
        self.window.nx as u128 * self.window.ny as u128 * 8
    }

    /// Encodes the fixed-size 120-byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(120);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&self.tenant.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        let (family, params, n) = spectrum_to_wire(&self.spectrum);
        out.push(family);
        for v in [params.h, params.clx, params.cly, n] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.truncation.unwrap_or(0.0).to_bits().to_le_bytes());
        out.extend_from_slice(&self.sizing_factor.to_bits().to_le_bytes());
        out.extend_from_slice(&self.sizing_min.to_le_bytes());
        out.extend_from_slice(&self.sizing_max.to_le_bytes());
        out.extend_from_slice(&self.window.x0.to_le_bytes());
        out.extend_from_slice(&self.window.y0.to_le_bytes());
        out.extend_from_slice(&(self.window.nx as u32).to_le_bytes());
        out.extend_from_slice(&(self.window.ny as u32).to_le_bytes());
        out.push(backend_to_wire(self.options.backend));
        out.extend_from_slice(&self.options.workers.to_le_bytes());
        out.extend_from_slice(&self.options.deadline_ms.to_le_bytes());
        out.extend_from_slice(&self.options.max_bytes.to_le_bytes());
        out
    }

    /// Decodes and validates a request payload.
    ///
    /// Validation goes through the library's own constructors — a
    /// decoded request is exactly as trustworthy as one built in
    /// process, and an invalid one fails here with the same typed
    /// [`RrsError::InvalidParam`] the library would raise.
    pub fn decode(payload: &[u8]) -> Result<Self, RrsError> {
        let mut c = Cursor::new(payload);
        let request_id = c.u64()?;
        let tenant = c.u64()?;
        let seed = c.u64()?;
        let family = c.u8()?;
        let h = c.f64()?;
        let clx = c.f64()?;
        let cly = c.f64()?;
        let n = c.f64()?;
        let params = SurfaceParams::try_new(h, clx, cly)?;
        let spectrum = match family {
            1 => SpectrumModel::Gaussian(rrs_spectrum::Gaussian::new(params)),
            2 => SpectrumModel::PowerLaw(PowerLaw::try_new(params, n)?),
            3 => SpectrumModel::Exponential(rrs_spectrum::Exponential::new(params)),
            other => {
                return Err(RrsError::corrupt_snapshot(format!(
                    "unknown spectrum family {other}"
                )))
            }
        };
        let trunc_raw = c.f64()?;
        let truncation = if trunc_raw == 0.0 {
            None
        } else if trunc_raw.is_finite() && trunc_raw > 0.0 && trunc_raw < 1.0 {
            Some(trunc_raw)
        } else {
            return Err(RrsError::invalid_param(
                "truncation",
                format!("truncation must satisfy 0 < ε < 1 (0 = none), got {trunc_raw}"),
            ));
        };
        let sizing_factor = c.f64()?;
        if !(sizing_factor.is_finite() && sizing_factor > 0.0) {
            return Err(RrsError::invalid_param(
                "sizing_factor",
                format!("support factor must be finite and positive, got {sizing_factor}"),
            ));
        }
        let sizing_min = c.u32()?;
        let sizing_max = c.u32()?;
        if sizing_min == 0 || sizing_min > sizing_max {
            return Err(RrsError::invalid_param(
                "sizing",
                format!("sizing bounds must satisfy 1 <= min <= max, got {sizing_min}..{sizing_max}"),
            ));
        }
        let x0 = c.i64()?;
        let y0 = c.i64()?;
        let nx = c.u32()? as usize;
        let ny = c.u32()? as usize;
        let window = Window::try_new(x0, y0, nx, ny)?;
        let backend = backend_from_wire(c.u8()?)?;
        let workers = c.u16()?;
        let deadline_ms = c.u32()?;
        let max_bytes = c.u64()?;
        c.finish()?;
        Ok(Self {
            request_id,
            tenant,
            seed,
            spectrum,
            truncation,
            sizing_factor,
            sizing_min,
            sizing_max,
            window,
            options: RequestOptions { backend, workers, deadline_ms, max_bytes },
        })
    }

    /// Best-effort request id from a payload that failed to decode, so
    /// the error reply still correlates (0 when even that is missing).
    pub fn peek_request_id(payload: &[u8]) -> u64 {
        payload
            .get(..8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
            .unwrap_or(0)
    }

    /// The kernel key: the bytes of exactly the fields that decide the
    /// kernel and the generator configuration (spectrum family and
    /// parameters, truncation, sizing, backend, worker override), in
    /// wire order — and deliberately *not* the seed, window, ids or
    /// budgets. The server coalesces and caches on it, and
    /// [`GenerateRequest::shard_key`] routes on its hash, so the two can
    /// never disagree on which requests share a kernel.
    pub(crate) fn kernel_key(&self) -> [u8; KERNEL_KEY_LEN] {
        let (family, params, n) = spectrum_to_wire(&self.spectrum);
        let mut key = [0u8; KERNEL_KEY_LEN];
        let mut at = 0;
        let mut put = |bytes: &[u8]| {
            key[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&[family]);
        let truncation = self.truncation.unwrap_or(0.0);
        for v in [params.h, params.clx, params.cly, n, truncation, self.sizing_factor] {
            put(&v.to_bits().to_le_bytes());
        }
        put(&self.sizing_min.to_le_bytes());
        put(&self.sizing_max.to_le_bytes());
        put(&[backend_to_wire(self.options.backend)]);
        put(&self.options.workers.to_le_bytes());
        debug_assert_eq!(at, KERNEL_KEY_LEN, "every key byte is written");
        key
    }

    /// The request's shard key: an FNV-1a hash of its kernel key.
    ///
    /// Two requests that would share a cached kernel on one server hash
    /// to the same shard key, so rendezvous routing on this key sends a
    /// kernel family to one shard and keeps every shard's kernel LRU
    /// disjoint. The hash is a pure function of the request bits —
    /// shard choice is replayable, never dependent on connection state.
    pub fn shard_key(&self) -> u64 {
        fnv1a(&self.kernel_key())
    }
}

/// Bytes in a request's kernel key: the family byte, six `f64`s, the two
/// sizing bounds, the backend byte and the worker override.
pub(crate) const KERNEL_KEY_LEN: usize = 1 + 6 * 8 + 2 * 4 + 1 + 2;

/// A spectrum's wire family number, parameters and power-law exponent (0
/// for the other families) — the one mapping the codec and the kernel
/// key share.
fn spectrum_to_wire(spectrum: &SpectrumModel) -> (u8, SurfaceParams, f64) {
    match *spectrum {
        SpectrumModel::Gaussian(m) => (1, m.params, 0.0),
        SpectrumModel::PowerLaw(m) => (2, m.params, m.n),
        SpectrumModel::Exponential(m) => (3, m.params, 0.0),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// A served surface window.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateOk {
    /// Echo of the request id.
    pub request_id: u64,
    /// The generated heights, row-major, bit-identical to the direct
    /// library call.
    pub grid: Grid2<f64>,
}

impl GenerateOk {
    /// Encodes `request_id | nx | ny | data`.
    pub fn encode(&self) -> Vec<u8> {
        let (nx, ny) = self.grid.shape();
        let mut out = Vec::with_capacity(16 + self.grid.len() * 8);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&(nx as u32).to_le_bytes());
        out.extend_from_slice(&(ny as u32).to_le_bytes());
        for &v in self.grid.as_slice() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    /// Decodes, validating the declared shape against the actual byte
    /// count before the grid is allocated.
    pub fn decode(payload: &[u8]) -> Result<Self, RrsError> {
        let mut c = Cursor::new(payload);
        let request_id = c.u64()?;
        let nx = c.u32()? as usize;
        let ny = c.u32()? as usize;
        let bytes = nx.checked_mul(ny).and_then(|n| n.checked_mul(8)).ok_or_else(|| {
            RrsError::corrupt_snapshot(format!("grid shape {nx}x{ny} overflows"))
        })?;
        let data = c
            .take(bytes)?
            .chunks_exact(8)
            .map(|w| f64::from_bits(u64::from_le_bytes(w.try_into().expect("8-byte word"))))
            .collect();
        c.finish()?;
        Ok(Self { request_id, grid: Grid2::try_from_vec(nx, ny, data)? })
    }
}

/// A typed generation failure, round-tripping the [`ErrorKind`] and —
/// for budget rejections — the byte accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateErr {
    /// Echo of the request id (0 when the request never decoded).
    pub request_id: u64,
    /// The stable error kind.
    pub kind: ErrorKind,
    /// `BudgetExceeded` only: bytes the request needed.
    pub required_bytes: u64,
    /// `BudgetExceeded` only: the ceiling it exceeded.
    pub max_bytes: u64,
    /// Human-readable detail (the server-side `Display` rendering).
    pub message: String,
}

impl GenerateErr {
    /// Builds the wire error from a server-side [`RrsError`].
    pub fn from_error(request_id: u64, e: &RrsError) -> Self {
        let (required_bytes, max_bytes) = match e.root_cause() {
            RrsError::BudgetExceeded { required_bytes, max_bytes, .. } => {
                // A kernel lattice's footprint can pass u64: saturate.
                (u64::try_from(*required_bytes).unwrap_or(u64::MAX), *max_bytes as u64)
            }
            _ => (0, 0),
        };
        Self { request_id, kind: e.kind(), required_bytes, max_bytes, message: e.to_string() }
    }

    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let msg = self.message.as_bytes();
        let mut out = Vec::with_capacity(29 + msg.len());
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.push(error_kind_to_wire(self.kind));
        out.extend_from_slice(&self.required_bytes.to_le_bytes());
        out.extend_from_slice(&self.max_bytes.to_le_bytes());
        out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
        out.extend_from_slice(msg);
        out
    }

    /// Decodes the payload.
    pub fn decode(payload: &[u8]) -> Result<Self, RrsError> {
        let mut c = Cursor::new(payload);
        let request_id = c.u64()?;
        let kind = error_kind_from_wire(c.u8()?)?;
        let required_bytes = c.u64()?;
        let max_bytes = c.u64()?;
        let msg_len = c.u32()? as usize;
        let message = String::from_utf8(c.take(msg_len)?.to_vec())
            .map_err(|_| RrsError::corrupt_snapshot("error message is not UTF-8"))?;
        c.finish()?;
        Ok(Self { request_id, kind, required_bytes, max_bytes, message })
    }
}

/// Why admission control rejected a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The global work queue is at capacity.
    QueueFull,
    /// The tenant is at its in-flight request cap.
    TenantQuota,
    /// This connection is at its in-flight frame cap (one peer may not
    /// monopolise the queue by pipelining unboundedly).
    ConnectionBusy,
}

/// An admission-control rejection — sent *before* the request consumes
/// queue space or allocates anything, so an overloaded server stays
/// responsive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// Echo of the request id.
    pub request_id: u64,
    /// What limit was hit.
    pub reason: OverloadReason,
    /// Queue depth at rejection time (a backoff hint).
    pub queue_depth: u32,
}

impl Overloaded {
    /// Encodes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.push(match self.reason {
            OverloadReason::QueueFull => 0,
            OverloadReason::TenantQuota => 1,
            OverloadReason::ConnectionBusy => 2,
        });
        out.extend_from_slice(&self.queue_depth.to_le_bytes());
        out
    }

    /// Decodes the payload.
    pub fn decode(payload: &[u8]) -> Result<Self, RrsError> {
        let mut c = Cursor::new(payload);
        let request_id = c.u64()?;
        let reason = match c.u8()? {
            0 => OverloadReason::QueueFull,
            1 => OverloadReason::TenantQuota,
            2 => OverloadReason::ConnectionBusy,
            other => {
                return Err(RrsError::corrupt_snapshot(format!(
                    "unknown overload reason {other}"
                )))
            }
        };
        let queue_depth = c.u32()?;
        c.finish()?;
        Ok(Self { request_id, reason, queue_depth })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> GenerateRequest {
        GenerateRequest::new(
            7,
            3,
            42,
            SpectrumModel::power_law(SurfaceParams::isotropic(1.5, 6.0), 2.0),
            Window::new(-4, 9, 32, 24),
        )
        .with_truncation(1e-3)
        .with_sizing(6.0, 8, 128)
        .with_backend(ConvBackend::FftOverlapSave)
        .with_workers(2)
        .with_deadline_ms(5_000)
        .with_max_bytes(1 << 20)
    }

    #[test]
    fn request_round_trips_bit_exactly() {
        let req = sample_request();
        let bytes = req.encode();
        assert_eq!(bytes.len(), 120, "fixed-size request payload");
        assert_eq!(GenerateRequest::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let req = sample_request();
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Generate, &req.encode()).unwrap();
        let (kind, payload) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Generate);
        assert_eq!(GenerateRequest::decode(&payload).unwrap(), req);
        // And a clean EOF after the frame boundary reads as None.
        let mut two = Vec::new();
        write_frame(&mut two, FrameKind::Ping, &[]).unwrap();
        let mut r = two.as_slice();
        assert!(read_frame(&mut r).unwrap().is_some());
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn bad_magic_oversize_and_checksum_fail_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Ping, b"abc").unwrap();

        let mut stomped = buf.clone();
        stomped[0] = b'X';
        assert_eq!(
            read_frame(&mut stomped.as_slice()).unwrap_err().kind(),
            ErrorKind::CorruptSnapshot
        );

        let mut oversize = buf.clone();
        oversize[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut oversize.as_slice()).unwrap_err().kind(),
            ErrorKind::CorruptSnapshot
        );

        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(
            read_frame(&mut flipped.as_slice()).unwrap_err().kind(),
            ErrorKind::CorruptSnapshot
        );
    }

    #[test]
    fn a_retired_rrsf_frame_is_rejected_typed() {
        // The first framing, byte by byte: magic "RRSF", then kind, length
        // and payload under a byte-wise FNV-1a checksum.
        let payload = sample_request().encode();
        let mut head = [FrameKind::Generate as u8, 0, 0, 0, 0];
        head[1..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = rrs_grid::fnv1a_extend(fnv1a(&head), &payload);
        let mut frame = b"RRSF".to_vec();
        frame.extend_from_slice(&head);
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc.to_le_bytes());
        let e = read_frame(&mut frame.as_slice()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::CorruptSnapshot, "{e}");
        // The same bytes under the current magic and checksum decode.
        frame[..4].copy_from_slice(&MAGIC);
        let n = frame.len();
        frame[n - 8..].copy_from_slice(&frame_checksum(&head, &payload).to_le_bytes());
        assert!(read_frame(&mut frame.as_slice()).unwrap().is_some());
    }

    #[test]
    fn a_response_declaring_more_samples_than_it_carries_fails_before_allocating() {
        for (nx, ny) in [(u32::MAX, u32::MAX), (1 << 16, 1 << 16), (3, 2)] {
            let mut payload = 5u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&nx.to_le_bytes());
            payload.extend_from_slice(&ny.to_le_bytes());
            payload.extend_from_slice(&[0u8; 40]);
            let e = GenerateOk::decode(&payload).unwrap_err();
            assert_eq!(e.kind(), ErrorKind::CorruptSnapshot, "{nx}x{ny}: {e}");
        }
    }

    #[test]
    fn invalid_parameters_are_rejected_at_decode() {
        let good = sample_request();
        // Negative correlation length.
        let mut bad = good.encode();
        bad[33..41].copy_from_slice(&(-3.0f64).to_bits().to_le_bytes());
        assert_eq!(
            GenerateRequest::decode(&bad).unwrap_err().kind(),
            ErrorKind::InvalidParam
        );
        // Power-law order n = 1 is not integrable.
        let mut bad = good.encode();
        bad[49..57].copy_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert_eq!(
            GenerateRequest::decode(&bad).unwrap_err().kind(),
            ErrorKind::InvalidParam
        );
        // Empty window.
        let mut bad = good.encode();
        bad[97..101].copy_from_slice(&0u32.to_le_bytes());
        let e = GenerateRequest::decode(&bad).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidParam);
        assert!(e.to_string().contains("non-empty"));
    }

    #[test]
    fn retired_backend_byte_is_rejected_typed() {
        // The backend byte sits just before workers, deadline and byte
        // ceiling (2 + 4 + 8 bytes).
        let mut bytes = sample_request().encode();
        let at = bytes.len() - 15;
        assert_eq!(bytes[at], backend_to_wire(ConvBackend::FftOverlapSave));
        bytes[at] = 2;
        let e = GenerateRequest::decode(&bytes).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidParam, "{e}");
        assert!(e.to_string().contains("FftComplexSerial"), "{e}");
        for (backend, wire) in
            [(ConvBackend::Direct, 0u8), (ConvBackend::FftOverlapSave, 1), (ConvBackend::Auto, 3)]
        {
            assert_eq!(backend_to_wire(backend), wire);
            assert_eq!(backend_from_wire(wire).unwrap(), backend);
        }
        assert_eq!(backend_from_wire(4).unwrap_err().kind(), ErrorKind::CorruptSnapshot);
    }

    #[test]
    fn responses_round_trip() {
        let ok = GenerateOk {
            request_id: 9,
            grid: Grid2::from_fn(3, 2, |x, y| (x as f64) - 0.25 * (y as f64)),
        };
        assert_eq!(GenerateOk::decode(&ok.encode()).unwrap(), ok);

        let err = GenerateErr {
            request_id: 10,
            kind: ErrorKind::BudgetExceeded,
            required_bytes: 4096,
            max_bytes: 1024,
            message: "window: 4096 bytes required, 1024 allowed".into(),
        };
        assert_eq!(GenerateErr::decode(&err.encode()).unwrap(), err);

        let over = Overloaded { request_id: 11, reason: OverloadReason::TenantQuota, queue_depth: 17 };
        assert_eq!(Overloaded::decode(&over.encode()).unwrap(), over);
    }

    #[test]
    fn error_kind_numbering_is_stable() {
        // Part of the wire protocol: renumbering is a breaking change.
        let all = [
            (ErrorKind::InvalidParam, 1),
            (ErrorKind::ShapeMismatch, 2),
            (ErrorKind::NonFinite, 3),
            (ErrorKind::WorkerPanicked, 4),
            (ErrorKind::CorruptSnapshot, 5),
            (ErrorKind::Io, 6),
            (ErrorKind::Cancelled, 7),
            (ErrorKind::DeadlineExceeded, 8),
            (ErrorKind::BudgetExceeded, 9),
            (ErrorKind::FaultInjected, 10),
            (ErrorKind::Unavailable, 11),
            (ErrorKind::Draining, 12),
        ];
        for (kind, wire) in all {
            assert_eq!(error_kind_to_wire(kind), wire);
            assert_eq!(error_kind_from_wire(wire).unwrap(), kind);
        }
        assert_eq!(error_kind_from_wire(0).unwrap_err().kind(), ErrorKind::CorruptSnapshot);
        assert_eq!(error_kind_from_wire(13).unwrap_err().kind(), ErrorKind::CorruptSnapshot);
    }

    #[test]
    fn shard_key_tracks_the_coalescing_key_not_the_request_identity() {
        let base = sample_request();
        let mut same_shard = base;
        same_shard.request_id = 999;
        same_shard.tenant = 5;
        same_shard.seed = 0xF00D;
        same_shard.window = Window::new(1_000, -1_000, 7, 11);
        same_shard.options.deadline_ms = 250;
        same_shard.options.max_bytes = 1 << 16;
        assert_eq!(
            base.shard_key(),
            same_shard.shard_key(),
            "seed/window/ids/budgets must not move a request across shards"
        );
        let other_kernel = base.with_truncation(5e-2);
        assert_ne!(base.shard_key(), other_kernel.shard_key(), "a different kernel reroutes");
        let other_backend = base.with_backend(ConvBackend::Direct);
        assert_ne!(base.shard_key(), other_backend.shard_key());
    }

    #[test]
    fn shard_keys_keep_their_values() {
        // Recorded before the key had one definition: a change to the key
        // bytes moves keys between endpoints and fails here.
        let win = Window::new(-5, 9, 32, 24);
        let p = SurfaceParams::new(1.25, 6.0, 9.5);
        let keys = [
            GenerateRequest::new(1, 2, 3, SpectrumModel::gaussian(p), win),
            GenerateRequest::new(1, 2, 3, SpectrumModel::power_law(p, 2.5), win).with_workers(3),
            GenerateRequest::new(1, 2, 3, SpectrumModel::exponential(p), win)
                .with_backend(ConvBackend::Direct)
                .with_sizing(6.0, 8, 512),
            GenerateRequest::new(1, 2, 3, SpectrumModel::gaussian(p), win).with_truncation(1e-3),
        ]
        .map(|r| r.shard_key());
        let recorded: [u64; 4] = [
            0x67f2_7668_5872_527a,
            0x5cc1_ce1c_c724_71aa,
            0xdf15_c11b_d1e0_745e,
            0xe523_afe0_07bd_d808,
        ];
        assert_eq!(keys, recorded);
    }

    /// Serves its bytes one at a time, then times out like a socket
    /// whose read deadline expired.
    struct TimeoutAfter {
        data: Vec<u8>,
        pos: usize,
    }

    impl std::io::Read for TimeoutAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "deadline"));
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn deadline_at_frame_boundary_is_marked_mid_frame_is_not() {
        // Timeout before any byte: a boundary timeout — recoverable.
        let mut idle = TimeoutAfter { data: Vec::new(), pos: 0 };
        let e = read_frame(&mut idle).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Io);
        assert!(timed_out_at_boundary(&e), "zero bytes consumed ⇒ boundary");

        // Timeout after a partial magic: mid-frame — the stream position
        // is unknowable and the marker must be absent.
        let mut partial = TimeoutAfter { data: MAGIC[..3].to_vec(), pos: 0 };
        let e = read_frame(&mut partial).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Io);
        assert!(!timed_out_at_boundary(&e), "partial frame ⇒ not a boundary timeout");

        // Timeout inside the payload: also mid-frame.
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::Ping, b"abc").unwrap();
        frame.truncate(frame.len() - 1);
        let mut torn = TimeoutAfter { data: frame, pos: 0 };
        let e = read_frame(&mut torn).unwrap_err();
        assert!(!timed_out_at_boundary(&e));
    }

    #[test]
    fn chaos_seam_is_transparent_when_disabled_and_typed_when_armed() {
        use rrs_chaos::{ChaosInjector, FaultKind, FaultSchedule};
        let req = sample_request();

        // Disabled: byte-identical to the plain functions.
        let chaos = ChaosInjector::disabled();
        let mut plain = Vec::new();
        write_frame(&mut plain, FrameKind::Generate, &req.encode()).unwrap();
        let mut seamed = Vec::new();
        write_frame_chaos(&mut seamed, FrameKind::Generate, &req.encode(), &chaos).unwrap();
        assert_eq!(plain, seamed, "disabled seam must not change a byte");
        let (kind, payload) = read_frame_chaos(&mut seamed.as_slice(), &chaos).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Generate);
        assert_eq!(GenerateRequest::decode(&payload).unwrap(), req);

        // An injected write error leaves a torn frame: the peer's codec
        // fails closed on it, exactly like a real mid-frame disconnect.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(1).with_fault(FaultSite::FrameWrite, FaultKind::Error, 0),
        );
        let mut torn = Vec::new();
        let err = write_frame_chaos(&mut torn, FrameKind::Generate, &req.encode(), &chaos)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(!torn.is_empty() && torn.len() < plain.len(), "prefix, not all or nothing");
        assert_eq!(&torn[..4], &MAGIC, "the torn frame still starts plausibly");
        assert_eq!(
            read_frame(&mut torn.as_slice()).unwrap_err().kind(),
            ErrorKind::CorruptSnapshot,
            "the peer must see a typed mid-frame disconnect"
        );

        // An injected read cancel reads as a clean hang-up; an injected
        // read error is a typed I/O failure before any byte is consumed.
        let chaos = ChaosInjector::new(
            FaultSchedule::new(2)
                .with_fault(FaultSite::FrameRead, FaultKind::Cancel, 0)
                .with_fault(FaultSite::FrameRead, FaultKind::Error, 1),
        );
        assert!(read_frame_chaos(&mut plain.as_slice(), &chaos).unwrap().is_none());
        let err = read_frame_chaos(&mut plain.as_slice(), &chaos).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Io);
        // Visit 2: nothing armed, the stream reads through untouched.
        let (kind, _) = read_frame_chaos(&mut plain.as_slice(), &chaos).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Generate);
        assert_eq!(chaos.injected(), 2);
    }
}
