//! A sharded, failover-capable client over N serving endpoints.
//!
//! ## Shard choice is pure
//!
//! Every request ranks the endpoints by rendezvous (highest-random-
//! weight) hashing on its [`GenerateRequest::shard_key`] — the
//! coalescing key, not the request identity — so all requests sharing a
//! kernel land on the same endpoint and the per-endpoint kernel LRUs
//! stay disjoint. The ranking is a pure function of (shard key,
//! endpoint list): replaying a request sequence against the same
//! endpoints reproduces every routing decision bit-for-bit.
//!
//! ## Failover is safe
//!
//! Window generation is stateless and idempotent (PAPER.md §1.3: a
//! window is a pure function of seed, spectrum and window), so a
//! request that failed in transit can be re-sent to any endpoint with
//! no risk of duplication or divergence — the retry either fails again
//! or returns the bit-identical grid.
//!
//! ## Retry discipline
//!
//! A request makes up to [`ShardedConfig::max_sweeps`] passes over the
//! HRW-ranked endpoints. Within a sweep, a retryable failure fails over
//! to the next endpoint immediately; between sweeps the client backs
//! off — starting at `base` and doubling up to `cap` — plus
//! deterministic splitmix64 jitter, checked against the per-request
//! deadline before every sleep *and* every endpoint attempt (failing
//! fast with `DeadlineExceeded` rather than sleeping or connecting
//! through it, with fresh connects clamped to the remaining budget).
//! Per-endpoint
//! circuit breakers (one [`BackendHealth`] each, the generators'
//! breaker: open after 3 consecutive failures, probe every 16th skip)
//! keep a dead endpoint from eating a connect timeout per request — but
//! if every breaker is open, the HRW-first endpoint is attempted anyway,
//! so the client degrades to "slow" rather than "wedged open".

use crate::client::{Client, ClientConfig, ServeError};
use crate::wire::{self, GenerateRequest};
use rrs_error::RrsError;
use rrs_grid::Grid2;
use rrs_obs::report::ObsReport;
use rrs_obs::{stage, Recorder};
use rrs_surface::BackendHealth;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Configuration for a [`ShardedClient`].
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Server addresses. Order does not affect routing (rendezvous
    /// hashing is order-free), only tie-breaking of equal scores.
    pub endpoints: Vec<String>,
    /// Per-connection settings (connect timeout, chaos seam).
    pub client: ClientConfig,
    /// Full passes over the ranked endpoints before giving up.
    pub max_sweeps: u32,
    /// Backoff before the `n`th retry sweep (1-based) is
    /// `min(base·2^(n-1), max_backoff)` plus jitter in `[0, backoff/2]`
    /// — the first retry waits `base`, doubling from there.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Overall per-request deadline across all sweeps; `None` means
    /// retry until sweeps are exhausted.
    pub deadline: Option<Duration>,
    /// Seed for the deterministic backoff jitter stream.
    pub seed: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            endpoints: Vec::new(),
            client: ClientConfig::default(),
            max_sweeps: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: None,
            seed: 0,
        }
    }
}

impl ShardedConfig {
    /// A config serving `endpoints` with defaults everywhere else.
    pub fn new(endpoints: Vec<String>) -> Self {
        Self { endpoints, ..Self::default() }
    }
}

/// SplitMix64 — the jitter stream generator (same finalizer as
/// `rrs-rng` and `rrs-chaos`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rendezvous score of `endpoint_hash` for `shard_key`: one
/// splitmix64 round over their XOR. The winner is the maximum — pure,
/// order-free, and stable under endpoint list growth (only keys whose
/// winner changed move).
fn hrw_score(shard_key: u64, endpoint_hash: u64) -> u64 {
    let mut s = shard_key ^ endpoint_hash;
    splitmix64(&mut s)
}

/// A failover client over N endpoints. See the [module docs](self) for
/// the routing and retry discipline.
pub struct ShardedClient {
    config: ShardedConfig,
    obs: Recorder,
    /// Lazily-established connections, index-aligned with
    /// `config.endpoints`. A transport failure drops the slot back to
    /// `None` (the stream position is unknowable mid-frame).
    conns: Vec<Option<Client>>,
    health: Vec<BackendHealth>,
    /// FNV-1a of each endpoint address, hashed once at construction.
    endpoint_hash: Vec<u64>,
    /// The deterministic jitter stream, advanced once per backoff.
    jitter: u64,
}

impl ShardedClient {
    /// Builds a client; connections are established lazily on first
    /// use of each endpoint.
    pub fn new(config: ShardedConfig) -> Result<Self, ServeError> {
        if config.endpoints.is_empty() {
            return Err(ServeError::Transport(RrsError::unavailable(
                "sharded client needs at least one endpoint",
            )));
        }
        let endpoint_hash =
            config.endpoints.iter().map(|a| wire::fnv1a(a.as_bytes())).collect();
        let n = config.endpoints.len();
        let jitter = config.seed;
        Ok(Self {
            config,
            obs: Recorder::enabled(),
            conns: (0..n).map(|_| None).collect(),
            health: (0..n).map(|_| BackendHealth::new()).collect(),
            endpoint_hash,
            jitter,
        })
    }

    /// The client-side resilience counters (`serve/client_*`).
    pub fn report(&self) -> ObsReport {
        self.obs.report()
    }

    /// The HRW ranking of endpoint indices for `shard_key`, best first.
    fn rank(&self, shard_key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.config.endpoints.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(hrw_score(shard_key, self.endpoint_hash[i])));
        order
    }

    /// The endpoint index `req` routes to when every endpoint is
    /// healthy — exposed so tests (and operators) can predict routing.
    pub fn primary_endpoint(&self, req: &GenerateRequest) -> usize {
        self.rank(req.shard_key())[0]
    }

    /// The backoff before sweep `sweep` (1-based over retries):
    /// `min(base·2^(sweep-1), cap)` plus jitter in `[0, backoff/2]`.
    fn backoff_delay(&mut self, sweep: u32) -> Duration {
        let exp = self
            .config
            .base_backoff
            .saturating_mul(1u32 << (sweep.saturating_sub(1)).min(20));
        let capped = exp.min(self.config.max_backoff);
        let half = (capped.as_nanos() as u64) / 2;
        let jitter = splitmix64(&mut self.jitter) % (half + 1);
        capped + Duration::from_nanos(jitter)
    }

    /// The connection to endpoint `i`, connecting if none is cached. A
    /// fresh connect never waits longer than the remaining `deadline`
    /// budget, so one unreachable endpoint cannot eat the whole window.
    fn connection(
        &mut self,
        i: usize,
        deadline: Option<Instant>,
    ) -> Result<&mut Client, ServeError> {
        if self.conns[i].is_none() {
            self.obs.add_counter(stage::SERVE_CLIENT_CONNECT, 1);
            let mut client_config = self.config.client.clone();
            if let Some(d) = deadline {
                // Floored at 1 ms: `TcpStream::connect_timeout` rejects
                // a zero duration, and a nearly-spent budget should
                // still surface as a typed connect failure.
                let remaining = d.saturating_duration_since(Instant::now());
                client_config.connect_timeout = client_config
                    .connect_timeout
                    .min(remaining.max(Duration::from_millis(1)));
            }
            let client = Client::connect_with(&*self.config.endpoints[i], client_config)?;
            self.conns[i] = Some(client);
        }
        Ok(self.conns[i].as_mut().expect("just connected"))
    }

    /// One round trip of `req` to endpoint `i`. A transport failure
    /// poisons the cached connection.
    fn call(
        &mut self,
        i: usize,
        req: &GenerateRequest,
        deadline: Option<Instant>,
    ) -> Result<Grid2<f64>, ServeError> {
        let out = self.connection(i, deadline)?.try_generate(req);
        if matches!(out, Err(ServeError::Transport(_))) {
            self.conns[i] = None;
        }
        out
    }

    /// Sends one request, failing over and retrying per the [module
    /// docs](self). Returns the first success or the last retryable
    /// error; non-retryable errors return immediately.
    pub fn generate(&mut self, req: &GenerateRequest) -> Result<Grid2<f64>, ServeError> {
        let order = self.rank(req.shard_key());
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        let mut last: Option<ServeError> = None;
        for sweep in 1..=self.config.max_sweeps.max(1) {
            if sweep > 1 {
                let delay = self.backoff_delay(sweep - 1);
                if let Some(d) = deadline {
                    // Fail fast rather than sleeping through the
                    // deadline: the caller gets the remaining budget
                    // back to spend elsewhere.
                    if Instant::now() + delay >= d {
                        return Err(last.unwrap_or(ServeError::Transport(
                            RrsError::DeadlineExceeded,
                        )));
                    }
                }
                self.obs.add_counter(stage::SERVE_CLIENT_RETRY, 1);
                std::thread::sleep(delay);
            }
            // The HRW order behind the breakers; then, if every breaker
            // was open and no probe was due, the HRW-first endpoint
            // anyway — the last rung is always tried, so an all-dead
            // fleet reports errors instead of silently skipping forever.
            let ranked = order.iter().enumerate().map(|(pos, &i)| (pos, i, true));
            let last_rung = std::iter::once((0, order[0], false));
            let mut attempted = false;
            for (pos, i, gated) in ranked.chain(last_rung) {
                if !gated && attempted {
                    break;
                }
                // Deadline check per attempt, not per sweep: each try
                // can block for a connect timeout plus a round trip, so
                // checking only at the backoff would let one sweep
                // overshoot the budget by endpoints × connect_timeout.
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(last.unwrap_or(ServeError::Transport(
                            RrsError::DeadlineExceeded,
                        )));
                    }
                }
                if gated && !self.health[i].should_try() {
                    self.obs.add_counter(stage::SERVE_CLIENT_BREAKER_SKIP, 1);
                    continue;
                }
                attempted = true;
                if pos > 0 {
                    self.obs.add_counter(stage::SERVE_CLIENT_FAILOVER, 1);
                }
                match self.call(i, req, deadline) {
                    Ok(grid) => {
                        self.health[i].record_success();
                        return Ok(grid);
                    }
                    Err(e) if e.is_retryable() => {
                        self.health[i].record_failure();
                        last = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Err(last.unwrap_or(ServeError::Transport(RrsError::unavailable(
            "all endpoints exhausted",
        ))))
    }

    /// Pipelines a batch: requests are grouped by their routed
    /// endpoint, each group is sent back-to-back on one connection, and
    /// responses are matched by request id (the server may answer out
    /// of order when coalescing). Any request stranded by a transport
    /// failure or a retryable rejection is re-issued through
    /// [`ShardedClient::generate`], so a mid-batch endpoint death
    /// surfaces as failover, never as a lost or corrupted window.
    ///
    /// Request ids must be unique within one batch (they are the
    /// response-matching key).
    pub fn generate_batch(
        &mut self,
        reqs: &[GenerateRequest],
    ) -> Vec<Result<Grid2<f64>, ServeError>> {
        let mut results: Vec<Option<Result<Grid2<f64>, ServeError>>> =
            (0..reqs.len()).map(|_| None).collect();
        // Group by routed endpoint: the HRW-best endpoint whose breaker
        // is closed (falling back to HRW-first if all are open).
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (j, req) in reqs.iter().enumerate() {
            let order = self.rank(req.shard_key());
            let target =
                order.iter().copied().find(|&i| !self.health[i].is_open()).unwrap_or(order[0]);
            groups.entry(target).or_default().push(j);
        }
        let mut targets: Vec<usize> = groups.keys().copied().collect();
        targets.sort_unstable(); // deterministic endpoint visit order
        for i in targets {
            let members = &groups[&i];
            self.pipeline_endpoint(i, reqs, members, &mut results);
        }
        // Anything unanswered re-enters through the sweeping path.
        for j in 0..reqs.len() {
            if results[j].is_none() {
                results[j] = Some(self.generate(&reqs[j]));
            }
        }
        results.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Pipelines `members` (indices into `reqs`) over endpoint `i`,
    /// filling `results` for every response that arrives. Terminal
    /// errors are recorded; retryable ones (and anything stranded by a
    /// transport failure) are left `None` for the caller to re-issue.
    fn pipeline_endpoint(
        &mut self,
        i: usize,
        reqs: &[GenerateRequest],
        members: &[usize],
        results: &mut Vec<Option<Result<Grid2<f64>, ServeError>>>,
    ) {
        // Connect (lazily) once for the whole group.
        let client = match self.connection(i, None) {
            Ok(client) => client,
            Err(_) => {
                self.health[i].record_failure();
                return; // whole group re-issues via generate()
            }
        };
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        let mut pending = 0usize;
        let mut send_failed = false;
        for &j in members {
            if client.send(&reqs[j]).is_err() {
                // Sent prefix stays pending (its responses may still
                // arrive); the rest re-issue through the failover path.
                send_failed = true;
                break;
            }
            by_id.insert(reqs[j].request_id, j);
            pending += 1;
        }
        let mut transport_failed = send_failed;
        while pending > 0 {
            match client.recv() {
                Ok((id, outcome)) => {
                    let Some(j) = by_id.remove(&id) else { continue };
                    pending -= 1;
                    match outcome {
                        Ok(grid) => results[j] = Some(Ok(grid)),
                        // Retryable rejections stay None → re-issued.
                        Err(e) if e.is_retryable() => drop(e),
                        Err(e) => results[j] = Some(Err(e)),
                    }
                }
                Err(_) => {
                    // The connection died mid-batch; everything still
                    // pending re-issues through the failover path.
                    transport_failed = true;
                    self.conns[i] = None;
                    break;
                }
            }
        }
        if send_failed {
            // A failed send may have torn the stream mid-frame; never
            // hand the re-issue path a poisoned connection.
            self.conns[i] = None;
        }
        if transport_failed {
            self.health[i].record_failure();
        } else {
            self.health[i].record_success();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hrw_ranking_is_pure_and_covers_all_endpoints() {
        let config = ShardedConfig::new(vec![
            "127.0.0.1:7001".into(),
            "127.0.0.1:7002".into(),
            "127.0.0.1:7003".into(),
        ]);
        let c = ShardedClient::new(config.clone()).expect("construct");
        let c2 = ShardedClient::new(config).expect("construct");
        let mut seen = [false; 3];
        for key in 0..64u64 {
            let order = c.rank(key);
            assert_eq!(order.len(), 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "a permutation of all endpoints");
            assert_eq!(order, c2.rank(key), "ranking is pure");
            seen[order[0]] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 keys should hit every endpoint as primary");
    }

    #[test]
    fn expired_deadline_fails_fast_before_any_attempt() {
        use rrs_grid::Window;
        use rrs_spectrum::{SpectrumModel, SurfaceParams};
        let mut config = ShardedConfig::new(vec!["127.0.0.1:1".into()]);
        config.deadline = Some(Duration::ZERO);
        let mut c = ShardedClient::new(config).expect("construct");
        let req = GenerateRequest::new(
            1,
            0,
            7,
            SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0)),
            Window::sized(8, 8),
        );
        match c.generate(&req) {
            Err(ServeError::Transport(RrsError::DeadlineExceeded)) => {}
            other => panic!("expected DeadlineExceeded before any attempt, got {other:?}"),
        }
        assert_eq!(
            c.report().counter(stage::SERVE_CLIENT_CONNECT),
            0,
            "an expired deadline must not pay a connect"
        );
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let mk = || {
            let mut config = ShardedConfig::new(vec!["127.0.0.1:1".into()]);
            config.seed = 42;
            ShardedClient::new(config).expect("construct")
        };
        let mut a = mk();
        let mut b = mk();
        for sweep in 1..=8 {
            let d = a.backoff_delay(sweep);
            assert_eq!(d, b.backoff_delay(sweep), "same seed, same jitter stream");
            // capped at max_backoff + 50% jitter
            assert!(d <= a.config.max_backoff * 3 / 2, "sweep {sweep}: {d:?}");
            if sweep == 1 {
                assert!(d >= a.config.base_backoff);
            }
        }
    }
}
