//! Serving resilience gate: the price of the failover layer, measured.
//!
//! Three gates, each failing the build (exit code 1) on regression:
//!
//! 1. **Failover tail** — with one of three endpoints dead (connection
//!    refused), p99 request latency through the `ShardedClient` must
//!    stay under a generous floor: failover must cost a refused
//!    connect, not a timeout, and the breaker must stop paying even
//!    that after it opens.
//! 2. **Chaos-off overhead** — the `ShardedClient` with chaos disabled
//!    and a single healthy endpoint must stay under
//!    [`OVERHEAD_CEILING`]× the plain `Client` on the same closed-loop
//!    workload: the routing, breaker and retry machinery may not tax the
//!    fast path. Measured as the median of [`OVERHEAD_PAIRS`] [`paired`]
//!    `sharded / plain` ratios, a block being the median of
//!    [`OVERHEAD_ROUND_TRIPS`] round trips.
//! 3. **Bit-identity** — zero windows served across the failover run
//!    may differ (FNV-1a over the raw f64 bytes) from direct library
//!    generation.
//!
//! Run with `cargo run --release -p rrs-bench --bin
//! bench_serve_resilience`; writes `BENCH_serve_resilience.json`.

use rrs_bench::harness::{median_call_ns, paired, Bound};
use rrs_bench::Harness;
use rrs_grid::{Grid2, Window};
use rrs_obs::stage;
use rrs_serve::wire::fnv1a;
use rrs_serve::{
    serve, Client, GenerateRequest, ServeConfig, ShardedClient, ShardedConfig,
};
use rrs_spectrum::{SpectrumModel, SurfaceParams};
use rrs_surface::{ConvBackend, ConvolutionGenerator, ConvolutionKernel, KernelSizing, NoiseField};
use std::time::Instant;

const WINDOW: usize = 48;
const FAILOVER_REQUESTS: usize = 60;
const SHARD_KEYS: usize = 6;
/// Window edge for the overhead gate: large enough that one round trip
/// costs ~1ms of real generation, so the client-side bookkeeping under
/// test (and scheduler jitter) is measured relative to realistic work
/// rather than to a no-op ping.
const OVERHEAD_WINDOW: usize = 96;
/// Round trips per block of the overhead gate; a block's time is its
/// median round trip, so a few that wait for a descheduled vCPU do not
/// move it, and a short block keeps a pair's two halves close in time.
const OVERHEAD_ROUND_TRIPS: usize = 20;
/// Paired reps of the overhead gate. Nine pairs of 30-round-trip blocks
/// timed whole read 0.61-1.37 on unchanged code on the shared 2-vCPU
/// host (per-pair ratios 0.52-2.49).
const OVERHEAD_PAIRS: usize = 101;
const P99_FAILOVER_FLOOR_MS: f64 = 250.0;
/// Gate on the median paired `sharded / plain` ratio. Over 12 runs of
/// this suite on the 2-vCPU bench host the median read 0.991-1.006
/// (1.006, 1.001, 0.995, 1.006, 0.991, 0.991, 1.000, 1.004, 0.998,
/// 1.005, 1.004, 1.003; per-pair ratios 0.29-3.49), so 1.05 sits three
/// spreads of those medians above the highest.
const OVERHEAD_CEILING: f64 = 1.05;

fn model() -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0))
}

fn truncation_of(key: usize) -> f64 {
    1e-4 * (1.0 + key as f64)
}

/// Distinct truncations give distinct kernels, hence distinct shard
/// keys spread across the endpoints by the rendezvous hash.
fn request(id: u64, key: usize, seed: u64) -> GenerateRequest {
    GenerateRequest::new(id, 0, seed, model(), Window::sized(WINDOW, WINDOW))
        .with_truncation(truncation_of(key))
        .with_sizing(8.0, 16, 64)
        .with_backend(ConvBackend::FftOverlapSave)
}

fn overhead_request(id: u64) -> GenerateRequest {
    GenerateRequest::new(id, 0, 3, model(), Window::sized(OVERHEAD_WINDOW, OVERHEAD_WINDOW))
        .with_truncation(truncation_of(0))
        .with_sizing(8.0, 16, 64)
        .with_backend(ConvBackend::FftOverlapSave)
}

fn direct(key: usize, seed: u64) -> Grid2<f64> {
    let kernel =
        ConvolutionKernel::build(&model(), KernelSizing::Auto { factor: 8.0, min: 16, max: 64 })
            .truncated(truncation_of(key));
    ConvolutionGenerator::from_kernel(kernel)
        .with_backend(ConvBackend::FftOverlapSave)
        .generate(&NoiseField::new(seed), Window::sized(WINDOW, WINDOW))
}

fn hash_grid(g: &Grid2<f64>) -> u64 {
    let mut bytes = Vec::with_capacity(g.as_slice().len() * 8);
    for v in g.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(&bytes)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let i = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[i]
}

fn main() {
    let mut h = Harness::new("serve_resilience").with_reps(5);
    let config = || ServeConfig { workers: 2, ..ServeConfig::default() };

    // -- gate 1 + 3: failover tail and bit-identity, one endpoint dead --
    let live_a = serve(config()).expect("bind a");
    let live_b = serve(config()).expect("bind b");
    let dead = serve(config()).expect("bind c");
    let endpoints =
        vec![live_a.addr().to_string(), live_b.addr().to_string(), dead.addr().to_string()];
    dead.shutdown();

    let mut sharded = ShardedClient::new(ShardedConfig::new(endpoints)).expect("construct");
    // Routing is a pure function of (shard key, endpoint list), and the
    // endpoint ports differ per run — so pick the shard keys by asking
    // the router, guaranteeing at least two keys whose primary is the
    // dead endpoint (the gate must actually exercise failover).
    let mut keys: Vec<usize> = Vec::new();
    let mut doomed = 0usize;
    for k in 0.. {
        let is_doomed = sharded.primary_endpoint(&request(0, k, 1)) == 2;
        if is_doomed && doomed < 2 {
            doomed += 1;
            keys.push(k);
        } else if !is_doomed && keys.len() - doomed < SHARD_KEYS - 2 {
            keys.push(k);
        }
        if keys.len() == SHARD_KEYS && doomed == 2 {
            break;
        }
        assert!(k < 4096, "HRW should spread 4096 keys over 3 endpoints");
    }
    let mut latencies = Vec::with_capacity(FAILOVER_REQUESTS);
    let mut mismatched = 0usize;
    for i in 0..FAILOVER_REQUESTS {
        let key = keys[i % keys.len()];
        let seed = 0xFA11 + i as u64;
        let req = request(i as u64 + 1, key, seed);
        let started = Instant::now();
        let served = sharded.generate(&req).expect("failover must complete every request");
        latencies.push(started.elapsed().as_nanos() as f64);
        if hash_grid(&served) != hash_grid(&direct(key, seed)) {
            mismatched += 1;
            eprintln!("window {i} (key {key}) is not bit-identical to direct generation");
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50_failover_ms = percentile(&latencies, 0.50) / 1e6;
    let p99_failover_ms = percentile(&latencies, 0.99) / 1e6;
    let report = sharded.report();
    let failovers = report.counter(stage::SERVE_CLIENT_FAILOVER);
    let breaker_skips = report.counter(stage::SERVE_CLIENT_BREAKER_SKIP);
    let connects = report.counter(stage::SERVE_CLIENT_CONNECT);
    println!(
        "failover: {FAILOVER_REQUESTS} requests, one dead endpoint of 3: \
         p50 {p50_failover_ms:.2}ms, p99 {p99_failover_ms:.2}ms, \
         {failovers} failovers, {breaker_skips} breaker skips, {connects} connects, \
         {mismatched} non-bit-identical windows"
    );
    live_b.shutdown();

    // -- gate 2: chaos-off overhead vs the plain client ------------------
    // Same single endpoint for both sides, in paired blocks.
    let addr = live_a.addr();
    let mut plain = Client::connect(addr).expect("connect plain");
    let mut solo =
        ShardedClient::new(ShardedConfig::new(vec![addr.to_string()])).expect("construct");
    // Warm the kernel + plan caches out of the measurement.
    plain.try_generate(&overhead_request(500_000)).expect("warm plain");
    solo.generate(&overhead_request(600_000)).expect("warm sharded");
    let mut seq = 0u64;
    let overhead = paired(OVERHEAD_PAIRS, 2, |i| {
        median_call_ns(OVERHEAD_ROUND_TRIPS, || {
            seq += 1;
            let req = overhead_request(1_000_000 + seq);
            if i == 0 {
                plain.try_generate(&req).expect("plain round-trip");
            } else {
                solo.generate(&req).expect("sharded round-trip");
            }
        })
    });
    live_a.shutdown();
    let cheap = h.gate(
        "sharded_over_plain_client",
        &overhead.ratios[1],
        Bound::Below(OVERHEAD_CEILING),
    );

    h.attach_section(
        "serve_resilience",
        format!(
            "{{\n    \"failover_requests\": {FAILOVER_REQUESTS},\n    \
             \"p50_failover_ms\": {p50_failover_ms:.3},\n    \
             \"p99_failover_ms\": {p99_failover_ms:.3},\n    \
             \"failovers\": {failovers},\n    \"breaker_skips\": {breaker_skips},\n    \
             \"connects\": {connects},\n    \"mismatched_windows\": {mismatched},\n    \
             \"client_report\": {}\n  }}",
            report.to_json("  ")
        ),
    );
    h.finish().expect("write BENCH_serve_resilience.json");

    let mut failed = !cheap;
    if p99_failover_ms >= P99_FAILOVER_FLOOR_MS {
        eprintln!(
            "FAIL: failover p99 {p99_failover_ms:.2}ms >= {P99_FAILOVER_FLOOR_MS}ms \
             with one dead endpoint"
        );
        failed = true;
    }
    if mismatched != 0 {
        eprintln!("FAIL: {mismatched} served windows were not bit-identical to direct generation");
        failed = true;
    }
    if failovers == 0 {
        eprintln!("FAIL: the dead endpoint never forced a failover — the gate measured nothing");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "serve_resilience gates passed: failover p99 {p99_failover_ms:.2}ms, \
         overhead < {OVERHEAD_CEILING}x, 0 mismatched windows"
    );
}
