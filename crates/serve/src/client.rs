//! A blocking client for the serving protocol.
//!
//! [`Client::try_generate`] is the one-shot form; [`Client::send`] /
//! [`Client::recv`] expose the pipelined form (many requests in flight
//! on one connection, responses matched by request id). The server may
//! answer out of send order when coalescing batches, so the client
//! stashes out-of-order responses instead of assuming FIFO.

use crate::wire::{
    self, FrameKind, GenerateErr, GenerateOk, GenerateRequest, Overloaded, OverloadReason,
};
use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{ErrorKind, RrsError};
use rrs_grid::Grid2;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side connection settings.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Bound on `connect` — an unreachable or partitioned endpoint
    /// surfaces a typed, retryable [`ErrorKind::Unavailable`] instead of
    /// hanging for the OS default (minutes).
    pub connect_timeout: Duration,
    /// Wire-level chaos injector ([`FaultSite::EndpointConnect`],
    /// `FrameRead`, `FrameWrite` fire client-side). Disabled by default.
    pub chaos: ChaosInjector,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            chaos: ChaosInjector::disabled(),
        }
    }
}

/// A generation failure reported by the server, carrying the stable
/// [`ErrorKind`] and the server-side message.
///
/// This is deliberately not an [`RrsError`]: several variants hold
/// `&'static str` fields a remote peer cannot reconstruct, so the wire
/// round-trips the kind plus the rendered message instead.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteError {
    /// The error kind as classified server-side.
    pub kind: ErrorKind,
    /// The server's `Display` rendering of the error.
    pub message: String,
    /// `BudgetExceeded` only: bytes the request needed.
    pub required_bytes: u64,
    /// `BudgetExceeded` only: the ceiling it exceeded.
    pub max_bytes: u64,
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error ({:?}): {}", self.kind, self.message)
    }
}

/// Everything that can go wrong with a served request.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control rejected the request before queueing it; retry
    /// later (the depth is a backoff hint).
    Overloaded {
        /// What limit was hit.
        reason: OverloadReason,
        /// Queue depth at rejection time.
        queue_depth: u32,
    },
    /// The server processed the request and failed, with a typed kind.
    Remote(RemoteError),
    /// The connection or codec failed client-side.
    Transport(RrsError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { reason, queue_depth } => {
                write!(f, "server overloaded ({reason:?}, queue depth {queue_depth})")
            }
            Self::Remote(e) => write!(f, "{e}"),
            Self::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl ServeError {
    /// Whether failing over — resending the identical request to the
    /// same or another endpoint — is both safe and promising. Safe is
    /// unconditional (generation is stateless and idempotent), so this
    /// answers "promising": transport failures (the connection is dead
    /// or suspect either way), admission rejections, and the retryable
    /// remote kinds (`Unavailable`, `Draining`, `Io`). Everything else
    /// is a deterministic property of the request itself and fails
    /// identically everywhere.
    pub fn is_retryable(&self) -> bool {
        match self {
            Self::Overloaded { .. } => true,
            Self::Transport(_) => true,
            Self::Remote(e) => e.kind.is_retryable(),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RrsError> for ServeError {
    fn from(e: RrsError) -> Self {
        Self::Transport(e)
    }
}

/// The outcome of one request, paired with its id by [`Client::recv`].
pub type Response = Result<Grid2<f64>, ServeError>;

/// What one received frame meant.
enum Incoming {
    /// A response to some generation request.
    Response(u64, Response),
    /// A ping reply.
    Pong,
    /// A metrics report.
    Metrics(String),
}

/// A blocking serving-protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    config: ClientConfig,
    /// Responses received while waiting for a different request id.
    stash: Vec<(u64, Response)>,
}

impl Client {
    /// Connects to a server with default [`ClientConfig`] (bounded
    /// connect, chaos disabled).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit settings. Each resolved address is tried
    /// in turn under [`ClientConfig::connect_timeout`]; total failure
    /// surfaces as a retryable [`ErrorKind::Unavailable`] transport
    /// error — the caller (or a `ShardedClient`) may fail over.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, ServeError> {
        if let Err(e) = config.chaos.poll_contained(FaultSite::EndpointConnect) {
            return Err(ServeError::Transport(RrsError::unavailable(format!(
                "injected connect fault: {e}"
            ))));
        }
        let addrs: Vec<_> = addr
            .to_socket_addrs()
            .map_err(|e| ServeError::Transport(RrsError::unavailable(format!("resolve: {e}"))))?
            .collect();
        let mut last: Option<std::io::Error> = None;
        let stream = addrs
            .iter()
            .find_map(|a| match TcpStream::connect_timeout(a, config.connect_timeout) {
                Ok(s) => Some(s),
                Err(e) => {
                    last = Some(e);
                    None
                }
            })
            .ok_or_else(|| {
                ServeError::Transport(RrsError::unavailable(match last {
                    Some(e) => format!("connect: {e}"),
                    None => "connect: no addresses resolved".into(),
                }))
            })?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| ServeError::Transport(RrsError::Io(e)))?;
        Ok(Self { reader: BufReader::new(stream), writer, config, stash: Vec::new() })
    }

    /// Sends a request without waiting — the pipelining half.
    pub fn send(&mut self, req: &GenerateRequest) -> Result<(), ServeError> {
        self.write(FrameKind::Generate, &req.encode())
    }

    /// Writes one frame through the chaos seam.
    fn write(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), ServeError> {
        wire::write_frame_chaos(&mut self.writer, kind, payload, &self.config.chaos)?;
        Ok(())
    }

    /// Reads and classifies the next frame.
    fn read_incoming(&mut self, waiting_for: &str) -> Result<Incoming, ServeError> {
        let (kind, payload) = wire::read_frame_chaos(&mut self.reader, &self.config.chaos)?
            .ok_or_else(|| {
                ServeError::Transport(RrsError::corrupt_snapshot(format!(
                    "server closed the connection while {waiting_for} was pending"
                )))
            })?;
        Ok(match kind {
            FrameKind::GenerateOk => {
                let ok = GenerateOk::decode(&payload)?;
                Incoming::Response(ok.request_id, Ok(ok.grid))
            }
            FrameKind::GenerateErr => {
                let err = GenerateErr::decode(&payload)?;
                Incoming::Response(
                    err.request_id,
                    Err(ServeError::Remote(RemoteError {
                        kind: err.kind,
                        message: err.message,
                        required_bytes: err.required_bytes,
                        max_bytes: err.max_bytes,
                    })),
                )
            }
            FrameKind::Overloaded => {
                let over = Overloaded::decode(&payload)?;
                Incoming::Response(
                    over.request_id,
                    Err(ServeError::Overloaded {
                        reason: over.reason,
                        queue_depth: over.queue_depth,
                    }),
                )
            }
            FrameKind::Pong => Incoming::Pong,
            FrameKind::MetricsReport => Incoming::Metrics(
                String::from_utf8(payload).map_err(|_| {
                    ServeError::Transport(RrsError::corrupt_snapshot(
                        "metrics report is not UTF-8",
                    ))
                })?,
            ),
            other => {
                return Err(ServeError::Transport(RrsError::corrupt_snapshot(format!(
                    "unexpected frame kind {other:?} while {waiting_for} was pending"
                ))))
            }
        })
    }

    /// Receives the next generation response, whichever request it
    /// answers. Stashed out-of-order responses drain first.
    pub fn recv(&mut self) -> Result<(u64, Response), ServeError> {
        if !self.stash.is_empty() {
            return Ok(self.stash.remove(0));
        }
        loop {
            match self.read_incoming("a response")? {
                Incoming::Response(id, outcome) => return Ok((id, outcome)),
                Incoming::Pong | Incoming::Metrics(_) => continue, // stale reply
            }
        }
    }

    /// Sends one request and blocks until *its* response arrives,
    /// stashing responses to other in-flight requests.
    pub fn try_generate(&mut self, req: &GenerateRequest) -> Result<Grid2<f64>, ServeError> {
        self.send(req)?;
        if let Some(i) = self.stash.iter().position(|(id, _)| *id == req.request_id) {
            return self.stash.remove(i).1;
        }
        loop {
            match self.read_incoming("a response")? {
                Incoming::Response(id, outcome) if id == req.request_id => return outcome,
                Incoming::Response(id, outcome) => self.stash.push((id, outcome)),
                Incoming::Pong | Incoming::Metrics(_) => {}
            }
        }
    }

    /// Fetches the server's metrics report as JSON, stashing any
    /// generation responses that arrive first.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        self.write(FrameKind::Metrics, &[])?;
        loop {
            match self.read_incoming("metrics")? {
                Incoming::Metrics(json) => return Ok(json),
                Incoming::Response(id, outcome) => self.stash.push((id, outcome)),
                Incoming::Pong => {}
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.write(FrameKind::Ping, &[])?;
        loop {
            match self.read_incoming("a pong")? {
                Incoming::Pong => return Ok(()),
                Incoming::Response(id, outcome) => self.stash.push((id, outcome)),
                Incoming::Metrics(_) => {}
            }
        }
    }
}
