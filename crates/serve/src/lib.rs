//! # rrs-serve — the surface-serving front-end
//!
//! A std-only TCP server (and matching client) that serves generated
//! surface windows over a small length-prefixed binary protocol, turning
//! the library's [`GenContext`](rrs_surface::GenContext)-configured
//! generators into a multi-tenant service:
//!
//! * **Wire codec** ([`wire`]) — `RRS2`-framed messages under the
//!   four-lane word checksum that snapshots also carry (the checkpoint
//!   codec's framing discipline); malformed, truncated or bit-flipped
//!   frames fail closed with typed errors, and requests validate through
//!   the library's own `try_new` constructors at decode time.
//! * **Scheduler** ([`server`]) — a shared work queue with per-tenant
//!   quotas enforced by [`rrs_error::Budget::admit`] *before* any
//!   allocation, and admission-control backpressure: an overloaded
//!   server answers with a typed [`Overloaded`] frame instead of
//!   queueing unboundedly.
//! * **Coalescing** — concurrent requests sharing a spectrum /
//!   truncation / sizing / backend key are batched onto one cached
//!   generator, so kernel construction amortises across the batch; a
//!   small LRU keeps hot kernels warm, and every generator fetches its
//!   FFT plans from the process-wide
//!   [`rrs_fft::FftPlanCache::global`].
//! * **Observability** — a `Metrics` frame returns the server's
//!   [`rrs_obs::report::ObsReport`] as JSON (requests, batches, coalesced jobs,
//!   cache hits/misses/evictions, overloads, plus all library stages).
//! * **Resilience** ([`sharded`]) — a [`ShardedClient`] routes by
//!   rendezvous hashing on the coalescing key across N endpoints, with
//!   per-endpoint circuit breakers, deadline-aware retry with
//!   deterministic jittered backoff, and automatic failover (safe
//!   because generation is stateless and idempotent). The server side
//!   hardens connections with read/write deadlines, a per-connection
//!   in-flight cap, and a graceful [`ServerHandle::drain`] mode that
//!   rejects new work with a typed retryable `Draining` error while
//!   finishing the queue. Both halves of the wire carry a chaos seam
//!   ([`rrs_chaos`] network fault sites) for replayable fault drills.
//!
//! Served output is bit-identical to calling the library directly with
//! the same spectrum, sizing, seed and window — the loopback suite in
//! the facade crate asserts it for every backend.
//!
//! ## Quick start
//!
//! ```
//! use rrs_serve::{serve, Client, GenerateRequest, ServeConfig};
//! use rrs_spectrum::{SpectrumModel, SurfaceParams};
//! use rrs_grid::Window;
//!
//! let server = serve(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let req = GenerateRequest::new(
//!     1,                                                        // request id
//!     0,                                                        // tenant
//!     42,                                                       // seed
//!     SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0)),
//!     Window::sized(32, 32),
//! );
//! let surface = client.try_generate(&req).unwrap();
//! assert_eq!(surface.shape(), (32, 32));
//! server.shutdown();
//! ```

mod client;
mod server;
pub mod sharded;
pub mod wire;

pub use client::{Client, ClientConfig, RemoteError, Response, ServeError};
pub use server::{serve, ServeConfig, ServerHandle, TenantQuota};
pub use sharded::{ShardedClient, ShardedConfig};
pub use wire::{
    FrameKind, GenerateErr, GenerateOk, GenerateRequest, Overloaded, OverloadReason,
    RequestOptions,
};
