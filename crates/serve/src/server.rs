//! The serving back half: listener, admission control, work queue,
//! request coalescing, and the kernel LRU.
//!
//! ## Thread model
//!
//! One accept thread, one reader thread per connection, and a fixed pool
//! of worker threads. Readers do only cheap work — decode, validate,
//! admit — and never generate; workers pull from one shared FIFO so a
//! burst on a single connection cannot starve the others.
//!
//! ## Admission control
//!
//! Rejection happens *before* the request allocates or occupies queue
//! space, in this order:
//!
//! 1. byte quota — `Budget::admit` against the tenant's
//!    `max_request_bytes` ceiling, of the output window and then of the
//!    output plus the kernel build's footprint on the lattice the
//!    request's sizing resolves to, yielding a typed `BudgetExceeded`
//!    error reply;
//! 2. queue capacity — a typed [`Overloaded`] (`QueueFull`) reply;
//! 3. tenant in-flight cap — a typed [`Overloaded`] (`TenantQuota`)
//!    reply.
//!
//! ## Coalescing
//!
//! Requests agreeing on spectrum, truncation, sizing, backend and
//! worker count share a [`GenKey`]. A worker that pops a job drains up
//! to `max_batch` same-key jobs from anywhere in the queue and serves
//! them on one cached generator, so the batch pays kernel construction
//! once. FFT plans come from the process-wide
//! [`FftPlanCache::global`](rrs_fft::FftPlanCache::global), so even
//! distinct keys with matching tile shapes reuse plans.

use crate::wire::{
    self, FrameKind, GenerateErr, GenerateRequest, Overloaded, OverloadReason,
};
use rrs_chaos::{ChaosInjector, FaultSite};
use rrs_error::{Budget, CancelToken, ErrorKind, RrsError};
use rrs_obs::report::ObsReport;
use rrs_obs::{stage, Recorder};
use rrs_spectrum::Spectrum;
use rrs_surface::{ConvolutionGenerator, ConvolutionKernel, GenContext, KernelSizing, NoiseField};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-tenant admission limits.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// Requests a tenant may have queued or generating at once.
    pub max_in_flight: usize,
    /// Byte ceiling per request — the output (`nx·ny·8`) and the kernel
    /// build's footprint together — enforced by [`Budget::admit`] before
    /// the request is queued.
    pub max_request_bytes: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self { max_in_flight: 64, max_request_bytes: 256 << 20 }
    }
}

/// Server configuration. `Default` is sized for tests and single-host
/// serving: 2 workers, a 64-deep queue, batches of 8, 8 cached kernels.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker (generator) threads.
    pub workers: usize,
    /// Work-queue capacity across all tenants.
    pub queue_capacity: usize,
    /// Maximum same-key jobs served per batch.
    pub max_batch: usize,
    /// Hot-kernel LRU capacity (distinct [`GenKey`]s).
    pub kernel_cache_capacity: usize,
    /// Quota for tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(u64, TenantQuota)>,
    /// Per-connection read deadline (slow-loris defense): a peer that
    /// goes quiet for this long — mid-frame, or idle with nothing in
    /// flight — has its reader thread reclaimed and the connection
    /// closed once the replies to what it had admitted are written. A
    /// quiet peer whose requests are still queued or generating is
    /// spared: it is waiting on responses, not stalling the server.
    /// `None` disables.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: a peer that stops draining its
    /// receive buffer cannot pin a worker in `write` forever.
    pub write_timeout: Option<Duration>,
    /// Requests one connection may have queued or generating at once;
    /// excess frames get a typed [`Overloaded`] (`ConnectionBusy`)
    /// reply. Bounds per-connection pipelining independently of the
    /// per-tenant quota.
    pub max_conn_in_flight: usize,
    /// Wire-level chaos injector ([`FaultSite::ConnAccept`],
    /// `FrameRead`, `FrameWrite` fire server-side). Disabled by
    /// default; the disabled form is one branch per poll.
    pub chaos: ChaosInjector,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            kernel_cache_capacity: 8,
            default_quota: TenantQuota::default(),
            tenant_quotas: Vec::new(),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            max_conn_in_flight: 64,
            chaos: ChaosInjector::disabled(),
        }
    }
}

impl ServeConfig {
    fn quota_for(&self, tenant: u64) -> TenantQuota {
        self.tenant_quotas
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, q)| *q)
            .unwrap_or(self.default_quota)
    }
}

/// The coalescing key: the request's kernel key (`kernel_key` in
/// [`wire`]: everything that determines the kernel and the generator
/// configuration, as exact bit patterns, and the bytes the client's
/// shard key hashes). Seed and window stay out — those vary per request
/// on one shared generator.
///
/// `solo` is 0 for cacheable jobs; budgeted jobs (deadline or byte
/// ceiling) carry their request id there so they never coalesce — each
/// needs its own one-off [`Budget`]-carrying generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct GenKey {
    kernel: [u8; wire::KERNEL_KEY_LEN],
    solo: u64,
}

impl GenKey {
    fn of(req: &GenerateRequest) -> Self {
        let budgeted = req.options.deadline_ms != 0 || req.options.max_bytes != 0;
        Self { kernel: req.kernel_key(), solo: if budgeted { req.request_id } else { 0 } }
    }

    /// The cache key ignoring `solo` — budgeted jobs still share the
    /// cached kernel underneath their one-off generator.
    fn cache_key(mut self) -> Self {
        self.solo = 0;
        self
    }
}

/// One admitted request waiting for a worker.
struct Job {
    key: GenKey,
    req: GenerateRequest,
    conn: Arc<Conn>,
}

/// One client connection, shared by its reader and its admitted jobs.
/// The shutdown registry holds it weakly, so it never outlives them.
struct Conn {
    /// The replies' half of the socket (the reader reads its own clone).
    /// Shutting it down closes the reader's clone too.
    stream: TcpStream,
    /// Held while a reply is written, so replies never interleave.
    write: Mutex<()>,
    /// Requests queued or generating, each released after its response
    /// is written (enforces [`ServeConfig::max_conn_in_flight`]).
    slots: AtomicUsize,
}

impl Drop for Conn {
    /// The reader and every admitted job hold the connection, so it
    /// closes once the reader has stopped and the last reply is written:
    /// a peer that sent a bad frame, or went quiet mid-frame, still gets
    /// the replies to the requests it pipelined before. Shut down
    /// explicitly, so the peer sees EOF however the socket's descriptors
    /// close.
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Queued-or-generating request count per tenant.
    in_flight: HashMap<u64, usize>,
}

struct CacheEntry {
    generator: Arc<ConvolutionGenerator>,
    last_used: u64,
}

/// The hot-kernel LRU: [`GenKey`] → shared generator. Capacity is
/// small (kernels are the expensive artefact; each holds a weights grid
/// plus warm FFT state), eviction is exact LRU by use tick.
#[derive(Default)]
struct KernelCache {
    entries: HashMap<GenKey, CacheEntry>,
    tick: u64,
}

struct Shared {
    config: ServeConfig,
    obs: Recorder,
    queue: Mutex<QueueState>,
    ready: Condvar,
    cancel: CancelToken,
    cache: Mutex<KernelCache>,
    /// The open connections, for shutdown (shutting one down returns its
    /// reader's blocked `read` too). Weak, so a closed connection's socket
    /// is released at once; dead entries are pruned on each accept.
    conns: Mutex<Vec<Weak<Conn>>>,
    /// Reader threads not yet joined; finished ones are joined on each
    /// accept.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Graceful-shutdown mode: stop accepting, reject new requests
    /// with a typed `Draining` error, finish the queue, then exit.
    draining: AtomicBool,
}

impl Shared {
    /// Looks up (or builds) the cached generator for `key`. The build
    /// happens outside the cache lock — a concurrent miss on the same
    /// key may build twice, but admission never blocks behind kernel
    /// construction.
    fn generator_for(&self, key: GenKey, req: &GenerateRequest) -> Result<Arc<ConvolutionGenerator>, RrsError> {
        let key = key.cache_key();
        {
            let mut cache = self.cache.lock().expect("kernel cache poisoned");
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.entries.get_mut(&key) {
                entry.last_used = tick;
                self.obs.add_counter(stage::SERVE_KERNEL_HIT, 1);
                return Ok(Arc::clone(&entry.generator));
            }
        }
        self.obs.add_counter(stage::SERVE_KERNEL_MISS, 1);
        let generator = Arc::new(self.build_generator(req)?);
        let mut cache = self.cache.lock().expect("kernel cache poisoned");
        cache.tick += 1;
        let tick = cache.tick;
        cache.entries.insert(key, CacheEntry { generator: Arc::clone(&generator), last_used: tick });
        while cache.entries.len() > self.config.kernel_cache_capacity.max(1) {
            let coldest = cache
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty cache");
            cache.entries.remove(&coldest);
            self.obs.add_counter(stage::SERVE_KERNEL_EVICT, 1);
        }
        Ok(generator)
    }

    fn build_generator(&self, req: &GenerateRequest) -> Result<ConvolutionGenerator, RrsError> {
        let mut kernel = ConvolutionKernel::build_observed(&req.spectrum, sizing(req), &self.obs);
        if let Some(eps) = req.truncation {
            kernel = kernel.try_truncated(eps, &self.obs)?;
        }
        // A client's worker count never exceeds the machine's: it picks at
        // most one thread per core, not one per row of a tall window.
        let cap = rrs_par::default_workers();
        let workers = match req.options.workers {
            0 => cap,
            n => cap.min(n as usize),
        };
        let ctx = GenContext::new()
            .with_backend(req.options.backend)
            .with_workers(workers)
            .with_recorder(self.obs.clone());
        Ok(ConvolutionGenerator::from_kernel(kernel).with_context(ctx))
    }

    /// Registers a new connection and its reader, pruning the
    /// connections that have closed and joining the readers that have
    /// finished, so neither list grows with the connections served.
    fn track(&self, conn: &Arc<Conn>, reader: JoinHandle<()>) {
        let mut conns = self.conns.lock().expect("conns poisoned");
        conns.retain(|c| c.strong_count() > 0);
        conns.push(Arc::downgrade(conn));
        drop(conns);
        let mut readers = self.readers.lock().expect("readers poisoned");
        let (done, running): (Vec<_>, Vec<_>) =
            readers.drain(..).partition(JoinHandle::is_finished);
        *readers = running;
        readers.push(reader);
        drop(readers);
        for t in done {
            let _ = t.join();
        }
    }

    /// Shuts every open connection down, so blocked readers return, then
    /// joins every reader. Called once the accept loop has stopped.
    fn close_connections(&self) {
        for conn in self.conns.lock().expect("conns poisoned").drain(..) {
            if let Some(conn) = conn.upgrade() {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let readers: Vec<_> = self.readers.lock().expect("readers poisoned").drain(..).collect();
        for t in readers {
            let _ = t.join();
        }
    }

    fn finish_job(&self, tenant: u64) {
        let mut q = self.queue.lock().expect("queue poisoned");
        if let Some(n) = q.in_flight.get_mut(&tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                q.in_flight.remove(&tenant);
            }
        }
    }
}

/// The kernel lattice policy a request asks for.
fn sizing(req: &GenerateRequest) -> KernelSizing {
    KernelSizing::Auto {
        factor: req.sizing_factor,
        min: req.sizing_min as usize,
        max: req.sizing_max as usize,
    }
}

/// Writes a frame to a connection through the chaos seam, ignoring a
/// dead peer (the job still completes server-side either way).
fn respond(shared: &Shared, conn: &Conn, kind: FrameKind, payload: &[u8]) {
    let _writing = conn.write.lock().expect("connection poisoned");
    let _ = wire::write_frame_chaos(&mut &conn.stream, kind, payload, &shared.config.chaos);
}

/// True for the `read` errors a socket read deadline produces
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_read_timeout(e: &RrsError) -> bool {
    matches!(
        e,
        RrsError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

fn reader_loop(shared: &Shared, stream: TcpStream, conn: Arc<Conn>) {
    let mut r = BufReader::new(stream);
    loop {
        match wire::read_frame_chaos(&mut r, &shared.config.chaos) {
            Ok(None) => return,
            Ok(Some((FrameKind::Ping, _))) => respond(shared, &conn, FrameKind::Pong, &[]),
            Ok(Some((FrameKind::Metrics, _))) => {
                let json = shared.obs.report().to_json("");
                respond(shared, &conn, FrameKind::MetricsReport, json.as_bytes());
            }
            Ok(Some((FrameKind::Generate, payload))) => {
                handle_generate(shared, &conn, &payload)
            }
            Ok(Some((kind, _))) => {
                // A response kind arriving at the server is a protocol
                // violation; answer typed and stop reading (the
                // connection closes after its last reply, see `Conn`).
                let e = RrsError::corrupt_snapshot(format!("unexpected frame kind {kind:?}"));
                respond(shared, &conn, FrameKind::GenerateErr, &GenerateErr::from_error(0, &e).encode());
                return;
            }
            Err(e) if is_read_timeout(&e) => {
                // A quiet peer with work still in flight is not a slow
                // loris: it pipelined requests and is waiting on its
                // responses, sending nothing. As long as the deadline
                // struck at a frame boundary (no partial frame on the
                // stream — the position is still decodable) and this
                // connection has requests queued or generating, keep
                // the reader alive; severing now would discard every
                // pending response.
                if wire::timed_out_at_boundary(&e)
                    && conn.slots.load(Ordering::Acquire) > 0
                {
                    if shared.cancel.is_cancelled() {
                        return;
                    }
                    continue;
                }
                // Slow-loris defense: the peer sat quiet past the read
                // deadline (idle or mid-frame). The stream position is
                // unknowable, so stop reading without a reply and reclaim
                // the thread; the connection closes after its last reply.
                shared.obs.add_counter(stage::SERVE_CONN_TIMEOUT, 1);
                return;
            }
            Err(e) => {
                // Fail closed: a malformed frame gets a typed reply and
                // reading stops (the stream may be mid-frame, so no
                // further decode is safe); the connection closes after
                // its last reply.
                respond(shared, &conn, FrameKind::GenerateErr, &GenerateErr::from_error(0, &e).encode());
                return;
            }
        }
        if shared.cancel.is_cancelled() {
            return;
        }
    }
}

fn handle_generate(shared: &Shared, conn: &Arc<Conn>, payload: &[u8]) {
    shared.obs.add_counter(stage::SERVE_REQUESTS, 1);
    if shared.draining.load(Ordering::SeqCst) {
        // Draining: typed, retryable rejection before any decode work —
        // the client's failover layer moves the request to a live
        // endpoint.
        shared.obs.add_counter(stage::SERVE_DRAINING_REJECT, 1);
        let id = GenerateRequest::peek_request_id(payload);
        respond(
            shared,
            conn,
            FrameKind::GenerateErr,
            &GenerateErr::from_error(id, &RrsError::Draining).encode(),
        );
        return;
    }
    let req = match GenerateRequest::decode(payload) {
        Ok(req) => req,
        Err(e) => {
            let id = GenerateRequest::peek_request_id(payload);
            respond(shared, conn, FrameKind::GenerateErr, &GenerateErr::from_error(id, &e).encode());
            return;
        }
    };
    let quota = shared.config.quota_for(req.tenant);
    // Byte quota first — before the request touches the queue, and long
    // before any allocation matching its size exists: the output window,
    // then the output together with the kernel lattice the request's
    // sizing resolves to (a cache miss builds it at full size before any
    // truncation).
    let gate = Budget::unlimited().with_max_bytes(quota.max_request_bytes);
    let lattice = sizing(&req).resolve(req.spectrum.params());
    let admitted = gate.admit("serve/window", req.output_bytes()).and_then(|()| {
        let kernel = ConvolutionKernel::build_bytes(lattice);
        gate.admit("serve/kernel", req.output_bytes() + kernel)
    });
    if let Err(e) = admitted {
        respond(
            shared,
            conn,
            FrameKind::GenerateErr,
            &GenerateErr::from_error(req.request_id, &e).encode(),
        );
        return;
    }
    // Per-connection pipelining cap. The reader is this connection's
    // only admitter, so check-then-increment cannot overshoot: workers
    // only ever decrement concurrently.
    if conn.slots.load(Ordering::Acquire) >= shared.config.max_conn_in_flight.max(1) {
        shared.obs.add_counter(stage::SERVE_CONN_BUSY, 1);
        shared.obs.add_counter(stage::SERVE_OVERLOADED, 1);
        let depth = shared.queue.lock().expect("queue poisoned").jobs.len() as u32;
        let over = Overloaded {
            request_id: req.request_id,
            reason: OverloadReason::ConnectionBusy,
            queue_depth: depth,
        };
        respond(shared, conn, FrameKind::Overloaded, &over.encode());
        return;
    }
    let job = Job { key: GenKey::of(&req), req, conn: Arc::clone(conn) };
    enum Rejection {
        Draining,
        Overloaded(OverloadReason),
    }
    let rejection = {
        let mut q = shared.queue.lock().expect("queue poisoned");
        // Authoritative drain check: `drain()` raises the flag while
        // holding this lock, so a request is either rejected here or
        // enqueued before a worker can observe empty + draining and
        // exit — an admitted job is never stranded by a gone pool. The
        // pre-decode check above is only a fast path.
        if shared.draining.load(Ordering::SeqCst) {
            Some(Rejection::Draining)
        } else if q.jobs.len() >= shared.config.queue_capacity {
            Some(Rejection::Overloaded(OverloadReason::QueueFull))
        } else if q.in_flight.get(&job.req.tenant).copied().unwrap_or(0) >= quota.max_in_flight {
            Some(Rejection::Overloaded(OverloadReason::TenantQuota))
        } else {
            *q.in_flight.entry(job.req.tenant).or_insert(0) += 1;
            conn.slots.fetch_add(1, Ordering::AcqRel);
            q.jobs.push_back(job);
            shared.ready.notify_one();
            None
        }
    };
    match rejection {
        None => {}
        Some(Rejection::Draining) => {
            shared.obs.add_counter(stage::SERVE_DRAINING_REJECT, 1);
            respond(
                shared,
                conn,
                FrameKind::GenerateErr,
                &GenerateErr::from_error(req.request_id, &RrsError::Draining).encode(),
            );
        }
        Some(Rejection::Overloaded(reason)) => {
            shared.obs.add_counter(stage::SERVE_OVERLOADED, 1);
            let depth = shared.queue.lock().expect("queue poisoned").jobs.len() as u32;
            let over = Overloaded { request_id: req.request_id, reason, queue_depth: depth };
            respond(shared, conn, FrameKind::Overloaded, &over.encode());
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            let first = loop {
                if shared.cancel.is_cancelled() {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                // Draining + empty queue: every admitted job has been
                // served and responded to; the pool can exit.
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.ready.wait(q).expect("queue poisoned");
            };
            // Drain same-key jobs from anywhere in the queue: they share
            // one generator, so serving them together amortises the
            // kernel and plan warm-up across the whole batch.
            let key = first.key;
            let mut batch = vec![first];
            let mut i = 0;
            while batch.len() < shared.config.max_batch.max(1) && i < q.jobs.len() {
                if q.jobs[i].key == key {
                    batch.push(q.jobs.remove(i).expect("index in bounds"));
                } else {
                    i += 1;
                }
            }
            batch
        };
        serve_batch(shared, batch);
    }
}

fn serve_batch(shared: &Shared, batch: Vec<Job>) {
    shared.obs.add_counter(stage::SERVE_BATCHES, 1);
    if batch.len() > 1 {
        shared.obs.add_counter(stage::SERVE_COALESCED, (batch.len() - 1) as u64);
    }
    let lead = &batch[0].req;
    let budgeted = lead.options.deadline_ms != 0 || lead.options.max_bytes != 0;
    let generator: Result<Arc<ConvolutionGenerator>, RrsError> = if budgeted {
        // One-off generator wearing this request's Budget, sharing the
        // cached kernel underneath.
        shared.generator_for(batch[0].key, lead).and_then(|cached| {
            let mut budget = Budget::unlimited();
            if lead.options.deadline_ms != 0 {
                budget = budget.with_timeout(Duration::from_millis(lead.options.deadline_ms as u64));
            }
            if lead.options.max_bytes != 0 {
                budget = budget.with_max_bytes(lead.options.max_bytes as usize);
            }
            let ctx = cached.context().clone().with_budget(budget);
            Ok(Arc::new(
                ConvolutionGenerator::from_kernel(cached.kernel().clone()).with_context(ctx),
            ))
        })
    } else {
        shared.generator_for(batch[0].key, lead)
    };
    for job in batch {
        shared.obs.add_counter(stage::SERVE_GENERATE, 1);
        let outcome = generator
            .as_ref()
            .map_err(|e| RrsError::corrupt_snapshot(e.to_string()).with_context("kernel build"))
            .and_then(|g| g.try_generate(&NoiseField::new(job.req.seed), job.req.window));
        match outcome {
            Ok(grid) => {
                let ok = wire::GenerateOk { request_id: job.req.request_id, grid };
                respond(shared, &job.conn, FrameKind::GenerateOk, &ok.encode());
            }
            Err(e) => {
                let err = GenerateErr::from_error(job.req.request_id, &e);
                respond(shared, &job.conn, FrameKind::GenerateErr, &err.encode());
            }
        }
        job.conn.slots.fetch_sub(1, Ordering::AcqRel);
        shared.finish_job(job.req.tenant);
    }
}

/// A running server. Dropping the handle shuts the server down; call
/// [`ServerHandle::shutdown`] to do it explicitly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the server's metrics — the same report the
    /// `Metrics` frame serves remotely.
    pub fn report(&self) -> ObsReport {
        self.shared.obs.report()
    }

    /// Stops accepting, closes every connection, drains the worker pool
    /// and joins all threads. Queued-but-unserved jobs are dropped.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Graceful shutdown: stops accepting new connections, rejects new
    /// requests with a typed retryable `Draining` error, finishes every
    /// queued job, flushes its response, then tears the server down.
    ///
    /// Unlike [`ServerHandle::shutdown`], no admitted request is ever
    /// dropped — a failover client moves rejected requests to another
    /// endpoint while this one empties. Returns the final metrics
    /// report (the handle is consumed, so this is the last look).
    pub fn drain(mut self) -> ObsReport {
        // Raise the flag while holding the queue lock: admission
        // re-checks it under the same lock, so every in-flight
        // admission either completed its enqueue before this store
        // (workers will pop it — they only exit on empty + draining)
        // or will observe the flag and reject with `Draining`. Without
        // the lock, a request checked just before the store could be
        // enqueued just after the last worker exits, stranding it.
        {
            let _q = self.shared.queue.lock().expect("queue poisoned");
            self.shared.draining.store(true, Ordering::SeqCst);
        }
        // Unblock the accept loop so it observes the flag and exits —
        // no new connections after this point.
        let _ = TcpStream::connect(self.addr);
        // Wake parked workers; each keeps popping until the queue is
        // empty, then observes the draining flag and exits, so every
        // admitted job has its response written before the pool is gone.
        self.shared.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Responses are flushed; now close the connections and join the
        // readers (`stop` is a no-op once `threads` is empty).
        self.shared.cancel.cancel();
        self.shared.close_connections();
        self.shared.obs.report()
    }

    fn stop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.shared.cancel.cancel();
        // Wake every parked worker so it can observe the cancel flag,
        // and unblock the accept loop with a throwaway connection.
        self.shared.ready.notify_all();
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Accept loop is down; no new readers can appear. Close every
        // socket so blocked readers return, then join them.
        self.shared.close_connections();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds and starts a server. Worker threads and the accept loop spin
/// up before this returns; the handle owns them.
pub fn serve(config: ServeConfig) -> Result<ServerHandle, RrsError> {
    let listener = TcpListener::bind(&config.addr).map_err(RrsError::Io)?;
    let addr = listener.local_addr().map_err(RrsError::Io)?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        config,
        obs: Recorder::enabled(),
        queue: Mutex::new(QueueState::default()),
        ready: Condvar::new(),
        cancel: CancelToken::new(),
        cache: Mutex::new(KernelCache::default()),
        conns: Mutex::new(Vec::new()),
        readers: Mutex::new(Vec::new()),
        draining: AtomicBool::new(false),
    });
    let mut threads = Vec::with_capacity(workers + 1);
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.cancel.is_cancelled() || shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                match shared.config.chaos.poll_contained(FaultSite::ConnAccept) {
                    Ok(()) => {}
                    Err(e) if e.kind() == ErrorKind::DeadlineExceeded => {
                        // Injected stall: the accept path hangs, then
                        // proceeds — late connections, not lost ones.
                        std::thread::sleep(wire::CHAOS_STALL);
                    }
                    Err(_) => {
                        // Injected accept failure: the connection dies
                        // before a reader exists; the peer sees a reset.
                        drop(stream);
                        continue;
                    }
                }
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(shared.config.read_timeout);
                let _ = stream.set_write_timeout(shared.config.write_timeout);
                let Ok(replies) = stream.try_clone() else { continue };
                let conn = Arc::new(Conn {
                    stream: replies,
                    write: Mutex::new(()),
                    slots: AtomicUsize::new(0),
                });
                let (inner, reader_conn) = (Arc::clone(&shared), Arc::clone(&conn));
                let handle = std::thread::spawn(move || reader_loop(&inner, stream, reader_conn));
                shared.track(&conn, handle);
            }
        }));
    }
    Ok(ServerHandle { addr, shared, threads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::{SpectrumModel, SurfaceParams};
    use rrs_grid::Window;

    fn key_of(req: &GenerateRequest) -> GenKey {
        GenKey::of(req)
    }

    #[test]
    fn coalescing_key_ignores_seed_and_window_but_not_budget() {
        let base = GenerateRequest::new(
            1,
            0,
            11,
            SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0)),
            Window::sized(16, 16),
        );
        let mut other = base;
        other.request_id = 2;
        other.seed = 99;
        other.window = Window::new(40, -3, 8, 24);
        assert_eq!(key_of(&base), key_of(&other), "seed/window must coalesce");

        let truncated = base.with_truncation(1e-3);
        assert_ne!(key_of(&base), key_of(&truncated), "truncation changes the kernel");

        let budgeted = base.with_deadline_ms(10);
        assert_ne!(key_of(&base), key_of(&budgeted), "budgeted jobs never coalesce");
        assert_eq!(
            key_of(&budgeted).cache_key(),
            key_of(&base),
            "but they share the cached kernel underneath"
        );
    }

    #[test]
    fn quota_lookup_falls_back_to_default() {
        let mut config = ServeConfig::default();
        config.tenant_quotas =
            vec![(7, TenantQuota { max_in_flight: 1, max_request_bytes: 64 })];
        assert_eq!(config.quota_for(7).max_in_flight, 1);
        assert_eq!(config.quota_for(8).max_in_flight, config.default_quota.max_in_flight);
    }
}
