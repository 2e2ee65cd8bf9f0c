//! Serving front-end gate: sustained multi-tenant throughput, tail
//! latency, coalescing effectiveness, and the transparency contract.
//!
//! The suite runs a real `rrs-serve` server on a loopback socket and
//! drives it from concurrent client connections (one tenant each, a
//! fixed pipeline depth per connection), then **fails** (exit code 1)
//! if any of the serving promises regress:
//!
//! 1. **Tail latency** — p99 request latency under the pinned load must
//!    stay below a generous floor (the workload is a 64×64 FFT-backend
//!    window; anything near the floor means the scheduler is serialising
//!    or thrashing, not that generation got slower).
//! 2. **Coalescing reaches the plan cache** — across the run the shared
//!    `FftPlanCache` must hit more than it misses: batched same-key
//!    requests ride one cached generator and one set of plans.
//! 3. **Transparency** — a served window is bit-identical to the direct
//!    library call with the same spectrum, sizing, seed and window.
//! 4. **Backpressure** — a saturated server rejects with a typed
//!    `Overloaded` frame *before* queueing or generating anything.
//! 5. **Checksum speed** — the four-lane word checksum that frames and
//!    snapshots carry must be at least [`MIN_CHECKSUM_SPEEDUP`]× as fast
//!    as byte-wise FNV-1a on 1 MiB (median of [`CHECKSUM_PAIRS`]
//!    [`paired`] ratios, rows `checksum/fnv1a/1MiB` and
//!    `checksum/words/1MiB`).
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_serve`;
//! writes `BENCH_serve.json` with a `serve` section embedding the
//! latency distribution and the server's own counter report, and the
//! checksum's paired ratios under `paired`.

use rrs_bench::harness::{paired, per_call_ns, Bound};
use rrs_bench::Harness;
use rrs_grid::{fnv1a, word_checksum, Window};
use rrs_obs::stage;
use rrs_serve::{serve, Client, GenerateRequest, ServeConfig, ServeError};
use rrs_spectrum::{SpectrumModel, SurfaceParams};
use rrs_surface::{ConvBackend, ConvolutionGenerator, ConvolutionKernel, KernelSizing, NoiseField};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const CONNECTIONS: usize = 4;
const REQUESTS_PER_CONNECTION: usize = 40;
const PIPELINE_DEPTH: usize = 4;
const WINDOW: usize = 64;
const P99_FLOOR_MS: f64 = 250.0;
/// Bytes checksummed per timed call: about a 362² window's payload.
const CHECKSUM_BYTES: usize = 1 << 20;
/// Paired reps of the checksum gate.
const CHECKSUM_PAIRS: usize = 15;
/// Gate on the median paired `fnv1a / words` ratio. Over 12 runs of this
/// suite on the 2-vCPU bench host the median read 14.1–19.0 (per-pair
/// ratios 5.2–20.3); a byte-serial checksum (1.0) fails it, and host
/// noise does not.
const MIN_CHECKSUM_SPEEDUP: f64 = 4.0;

fn model() -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0))
}

fn request(id: u64, tenant: u64, seed: u64) -> GenerateRequest {
    GenerateRequest::new(id, tenant, seed, model(), Window::sized(WINDOW, WINDOW))
        .with_truncation(1e-3)
        .with_sizing(8.0, 16, 64)
        .with_backend(ConvBackend::FftOverlapSave)
}

/// Drives one connection closed-loop at a fixed pipeline depth,
/// returning per-request latencies in nanoseconds.
fn drive_connection(addr: std::net::SocketAddr, tenant: u64) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect");
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut latencies = Vec::with_capacity(REQUESTS_PER_CONNECTION);
    let mut next = 0usize;
    let mut done = 0usize;
    while done < REQUESTS_PER_CONNECTION {
        while next < REQUESTS_PER_CONNECTION && sent_at.len() < PIPELINE_DEPTH {
            let id = (tenant << 32) | next as u64;
            let req = request(id, tenant, id);
            sent_at.insert(id, Instant::now());
            client.send(&req).expect("send");
            next += 1;
        }
        let (id, outcome) = client.recv().expect("recv");
        outcome.expect("request under pinned load must succeed");
        let started = sent_at.remove(&id).expect("response matches a sent request");
        latencies.push(started.elapsed().as_nanos() as f64);
        done += 1;
    }
    latencies
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let i = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[i]
}

fn main() {
    let mut h = Harness::new("serve").with_reps(10);

    // -- the frame checksum against the byte-wise one it replaced -------
    let bytes: Vec<u8> = (0..CHECKSUM_BYTES as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect();
    let checksums: [fn(&[u8]) -> u64; 2] = [word_checksum, fnv1a];
    let checksum = paired(CHECKSUM_PAIRS, 2, |i| {
        per_call_ns(1, || {
            black_box(checksums[i](black_box(&bytes)));
        })
    });
    h.record("checksum/fnv1a/1MiB", Some(CHECKSUM_BYTES as u64), checksum.times[1].clone());
    h.record("checksum/words/1MiB", Some(CHECKSUM_BYTES as u64), checksum.times[0].clone());
    let mut failed = !h.gate(
        "checksum/1MiB/fnv1a_over_words",
        &checksum.ratios[1],
        Bound::AtLeast(MIN_CHECKSUM_SPEEDUP),
    );

    // -- single-request round-trip microbench ---------------------------
    let server = serve(ServeConfig { workers: 2, max_batch: 16, ..ServeConfig::default() })
        .expect("bind");
    let addr = server.addr();
    {
        let mut client = Client::connect(addr).expect("connect");
        let mut seq = 0u64;
        h.bench_elems("serve/roundtrip_64x64", (WINDOW * WINDOW) as u64, || {
            seq += 1;
            client.try_generate(&request(1_000_000 + seq, 0, 9)).expect("roundtrip")
        });
    }

    // -- sustained concurrent multi-tenant load -------------------------
    let wall = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|tenant| s.spawn(move || drive_connection(addr, tenant as u64)))
            .collect();
        handles.into_iter().flat_map(|t| t.join().expect("connection thread")).collect()
    });
    let elapsed = wall.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let total = latencies.len();
    let windows_per_sec = total as f64 / elapsed;
    let p50_ms = percentile(&latencies, 0.50) / 1e6;
    let p99_ms = percentile(&latencies, 0.99) / 1e6;
    println!(
        "sustained: {total} windows over {CONNECTIONS} connections in {elapsed:.3}s \
         = {windows_per_sec:.1} windows/s, p50 {p50_ms:.2}ms, p99 {p99_ms:.2}ms"
    );

    // -- transparency: served output == direct library call -------------
    let mut client = Client::connect(addr).expect("connect");
    let probe = request(7_000_000, 0, 0xD1CE);
    let served = client.try_generate(&probe).expect("probe");
    let reference = {
        let kernel = ConvolutionKernel::build(&model(), KernelSizing::Auto {
            factor: 8.0,
            min: 16,
            max: 64,
        })
        .truncated(1e-3);
        ConvolutionGenerator::from_kernel(kernel)
            .with_backend(ConvBackend::FftOverlapSave)
            .generate(&NoiseField::new(0xD1CE), Window::sized(WINDOW, WINDOW))
    };
    let transparent = served == reference;

    let report = server.report();
    let plan_hits = report.counter(stage::FFT_PLAN_HIT);
    let plan_misses = report.counter(stage::FFT_PLAN_MISS);
    let coalesced = report.counter(stage::SERVE_COALESCED);
    let batches = report.counter(stage::SERVE_BATCHES);
    println!(
        "server counters: {} requests, {batches} batches ({coalesced} coalesced), \
         kernel {}H/{}M, plans {plan_hits}H/{plan_misses}M",
        report.counter(stage::SERVE_REQUESTS),
        report.counter(stage::SERVE_KERNEL_HIT),
        report.counter(stage::SERVE_KERNEL_MISS),
    );
    server.shutdown();

    // -- backpressure: a saturated server rejects typed, pre-allocation -
    let tiny = serve(ServeConfig { queue_capacity: 0, ..ServeConfig::default() }).expect("bind");
    let mut starved = Client::connect(tiny.addr()).expect("connect");
    let overload_typed = matches!(
        starved.try_generate(&request(1, 0, 1)),
        Err(ServeError::Overloaded { .. })
    );
    let overload_report = tiny.report();
    let overload_counted = overload_report.counter(stage::SERVE_OVERLOADED) >= 1;
    let overload_pre_alloc = overload_report.counter(stage::SERVE_GENERATE) == 0;
    tiny.shutdown();

    h.attach_section(
        "serve",
        format!(
            "{{\n    \"connections\": {CONNECTIONS},\n    \"requests\": {total},\n    \
             \"windows_per_sec\": {windows_per_sec:.2},\n    \"p50_ms\": {p50_ms:.3},\n    \
             \"p99_ms\": {p99_ms:.3},\n    \"coalesced\": {coalesced},\n    \
             \"batches\": {batches},\n    \"plan_hits\": {plan_hits},\n    \
             \"plan_misses\": {plan_misses},\n    \"report\": {}\n  }}",
            report.to_json("  ")
        ),
    );
    h.finish().expect("write BENCH_serve.json");

    if p99_ms >= P99_FLOOR_MS {
        eprintln!("FAIL: p99 latency {p99_ms:.2}ms >= {P99_FLOOR_MS}ms under pinned load");
        failed = true;
    }
    if plan_hits <= plan_misses {
        eprintln!(
            "FAIL: shared plan cache hit {plan_hits} <= missed {plan_misses} — \
             coalesced batches are not reusing plans"
        );
        failed = true;
    }
    if !transparent {
        eprintln!("FAIL: served window differs from the direct library call");
        failed = true;
    }
    if !overload_typed || !overload_counted || !overload_pre_alloc {
        eprintln!(
            "FAIL: overload handling (typed {overload_typed}, counted {overload_counted}, \
             pre-allocation {overload_pre_alloc})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "serve gates passed: p99 {p99_ms:.2}ms, plans {plan_hits}H/{plan_misses}M, bit-identical, \
         typed overload, checksum >= {MIN_CHECKSUM_SPEEDUP}x"
    );
}
