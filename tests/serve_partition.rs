//! Partition-torture suite for the resilient serving layer: multiple
//! in-process servers, a `ShardedClient` routing by rendezvous hashing
//! on the coalescing key, and seeded wire-level chaos killing or
//! stalling endpoints mid-pipelined-batch.
//!
//! The headline invariant is the paper's own (PAPER.md §1.3): a window
//! is a pure function of (seed, spectrum, window), so no matter which
//! endpoint ultimately serves a request — first choice, failover, or a
//! retry after a torn frame — the bits must be FNV-1a identical to
//! direct in-process generation. Failover, retry and breaker activity
//! are asserted through the `serve/client_*` obs counters, and chaos
//! runs replay bit-for-bit from their schedules.

use rrs::obs::stage;
use rrs::prelude::*;
use rrs::serve::wire::{self, FrameKind};
use rrs::serve::serve;

fn spectrum() -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(1.2, 5.0))
}

/// The direct in-process reference for a served request (whose options
/// leave the backend at the wire default, `Direct`).
fn direct(truncation: f64, seed: u64, win: Window) -> Grid2<f64> {
    let kernel = ConvolutionKernel::build(
        &spectrum(),
        KernelSizing::Auto { factor: 6.0, min: 8, max: 64 },
    )
    .try_truncated(truncation, &Recorder::disabled())
    .expect("valid epsilon");
    ConvolutionGenerator::from_kernel(kernel)
        .with_backend(ConvBackend::Direct)
        .generate(&NoiseField::new(seed), win)
}

/// FNV-1a over the window's little-endian f64 bytes — the suite's
/// bit-identity fingerprint.
fn hash_grid(g: &Grid2<f64>) -> u64 {
    let mut bytes = Vec::with_capacity(g.as_slice().len() * 8);
    for v in g.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    wire::fnv1a(&bytes)
}

/// A request whose shard key varies with `key` (distinct truncations
/// land on distinct kernels, hence — usually — distinct endpoints).
fn request(id: u64, key: usize, seed: u64, win: Window) -> GenerateRequest {
    GenerateRequest::new(id, 0, seed, spectrum(), win)
        .with_truncation(truncation_of(key))
        .with_sizing(6.0, 8, 64)
}

fn truncation_of(key: usize) -> f64 {
    1e-4 * (1.0 + key as f64)
}

/// Small, deterministic single-lane servers: one worker, no batching,
/// so response order equals admission order and chaos replays exactly.
fn lane_config() -> ServeConfig {
    ServeConfig { workers: 1, max_batch: 1, ..ServeConfig::default() }
}

#[test]
fn failover_around_a_dead_endpoint_is_bit_identical_and_counted() {
    let live_a = serve(lane_config()).expect("bind a");
    let live_b = serve(lane_config()).expect("bind b");
    let dead = serve(lane_config()).expect("bind c");
    let endpoints =
        vec![live_a.addr().to_string(), live_b.addr().to_string(), dead.addr().to_string()];
    dead.shutdown(); // connections now refused — a genuinely dead shard

    let mut sharded = ShardedClient::new(ShardedConfig::new(endpoints)).expect("construct");
    let win = Window::new(-4, 2, 24, 20);

    // Find a kernel key the pure HRW routing pins to the dead endpoint,
    // so the failover path is exercised by construction, not by luck.
    let doomed_key = (0..64)
        .find(|&k| sharded.primary_endpoint(&request(1, k, 1, win)) == 2)
        .expect("64 kernel keys must hit all 3 endpoints");

    // Three straight failures open the dead endpoint's breaker; the
    // later doomed requests must then skip it without paying a connect.
    for (i, key) in
        [doomed_key, doomed_key, doomed_key, doomed_key, 0, 1, doomed_key].iter().enumerate()
    {
        let seed = 0xA5A5 + i as u64;
        let req = request(i as u64 + 1, *key, seed, win);
        let served = sharded.generate(&req).expect("failover must succeed");
        assert_eq!(
            hash_grid(&served),
            hash_grid(&direct(truncation_of(*key), seed, win)),
            "request {i} (key {key}): served window diverged from direct generation"
        );
    }

    let report = sharded.report();
    assert!(
        report.counter(stage::SERVE_CLIENT_FAILOVER) >= 1,
        "routing to a dead endpoint must be visible as serve/client_failover: {}",
        report.to_json("")
    );
    // Three failures opened the dead endpoint's breaker; the third
    // doomed request skipped it without paying a connect.
    assert!(
        report.counter(stage::SERVE_CLIENT_BREAKER_SKIP) >= 1,
        "the dead endpoint's breaker never opened: {}",
        report.to_json("")
    );
    live_a.shutdown();
    live_b.shutdown();
}

#[test]
fn seeded_chaos_mid_batch_loses_no_window_and_corrupts_none() {
    // Both servers tear a response frame mid-write at their 3rd write;
    // the client additionally fails its first connect, tears a request
    // frame, stalls a read, and has a read hang up cleanly.
    let server_chaos = || {
        ChaosInjector::new(
            FaultSchedule::new(7).with_fault(FaultSite::FrameWrite, FaultKind::Error, 2),
        )
    };
    let chaos_a = server_chaos();
    let chaos_b = server_chaos();
    let a = serve(ServeConfig { chaos: chaos_a.clone(), ..lane_config() }).expect("bind a");
    let b = serve(ServeConfig { chaos: chaos_b.clone(), ..lane_config() }).expect("bind b");

    let client_chaos = ChaosInjector::new(
        FaultSchedule::new(11)
            .with_fault(FaultSite::EndpointConnect, FaultKind::Error, 0)
            .with_fault(FaultSite::FrameWrite, FaultKind::Error, 4)
            .with_fault(FaultSite::FrameRead, FaultKind::Deadline, 3)
            .with_fault(FaultSite::FrameRead, FaultKind::Cancel, 7),
    );
    let mut config =
        ShardedConfig::new(vec![a.addr().to_string(), b.addr().to_string()]);
    config.client.chaos = client_chaos.clone();
    let mut sharded = ShardedClient::new(config).expect("construct");

    let win = Window::sized(20, 16);
    let reqs: Vec<GenerateRequest> =
        (0..10).map(|i| request(i as u64 + 1, i % 4, 0x50 + i as u64, win)).collect();
    let results = sharded.generate_batch(&reqs);

    for (i, result) in results.iter().enumerate() {
        let served = result.as_ref().expect("every window completes despite chaos");
        assert_eq!(
            hash_grid(served),
            hash_grid(&direct(truncation_of(i % 4), 0x50 + i as u64, win)),
            "request {i}: chaos corrupted a window"
        );
    }
    assert!(
        client_chaos.injected() >= 3,
        "client-side faults must actually fire, injected = {}",
        client_chaos.injected()
    );
    assert!(
        chaos_a.injected() + chaos_b.injected() >= 1,
        "at least one server must reach its torn-write fault"
    );
    let report = sharded.report();
    assert!(
        report.counter(stage::SERVE_CLIENT_CONNECT) >= 2,
        "failed connects and poisoned connections force reconnects: {}",
        report.to_json("")
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn chaos_schedules_replay_bit_for_bit() {
    // Same servers (so the endpoint list — and therefore the pure HRW
    // routing — is identical), fresh client + fresh injector per run,
    // identical schedules: every window hash, every fault count, every
    // visit counter and every resilience counter must replay exactly.
    let a = serve(lane_config()).expect("bind a");
    let b = serve(lane_config()).expect("bind b");
    let endpoints = vec![a.addr().to_string(), b.addr().to_string()];
    let win = Window::sized(18, 14);

    let run = |endpoints: &[String]| {
        let chaos = ChaosInjector::new(
            FaultSchedule::new(23)
                .with_fault(FaultSite::EndpointConnect, FaultKind::Error, 1)
                .with_fault(FaultSite::FrameRead, FaultKind::Cancel, 5)
                .with_fault(FaultSite::FrameWrite, FaultKind::Error, 6),
        );
        let mut config = ShardedConfig::new(endpoints.to_vec());
        config.client.chaos = chaos.clone();
        config.seed = 99; // jitter stream seed
        let mut sharded = ShardedClient::new(config).expect("construct");
        let reqs: Vec<GenerateRequest> =
            (0..8).map(|i| request(i as u64 + 1, i % 3, 0x90 + i as u64, win)).collect();
        let hashes: Vec<u64> = sharded
            .generate_batch(&reqs)
            .into_iter()
            .map(|r| hash_grid(&r.expect("completes")))
            .collect();
        let report = sharded.report();
        let counters: Vec<u64> = [
            stage::SERVE_CLIENT_RETRY,
            stage::SERVE_CLIENT_FAILOVER,
            stage::SERVE_CLIENT_BREAKER_SKIP,
            stage::SERVE_CLIENT_CONNECT,
        ]
        .iter()
        .map(|s| report.counter(s))
        .collect();
        let visits: Vec<u64> =
            FaultSite::NETWORK.iter().map(|&s| chaos.visits(s)).collect();
        (hashes, counters, visits, chaos.injected())
    };

    let first = run(&endpoints);
    let second = run(&endpoints);
    assert_eq!(first, second, "chaos replay must be bit-for-bit identical");
    // And the chaos actually did something both times.
    assert!(first.3 >= 2, "faults must fire during the replayed runs");
    a.shutdown();
    b.shutdown();
}

#[test]
fn draining_rejects_typed_finishes_the_queue_and_flushes_responses() {
    let server = serve(lane_config()).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Occupy the single worker with a deliberately heavy Direct job
    // (single in-generator worker, ~4·10⁹ multiply-adds — seconds on
    // any machine), and queue three fast jobs behind it, so the drain
    // is still in progress when the probe below arrives.
    let slow = GenerateRequest::new(1, 0, 1, spectrum(), Window::sized(512, 512))
        .with_sizing(12.0, 128, 128)
        .with_workers(1)
        .with_backend(ConvBackend::Direct);
    client.send(&slow).expect("send slow");
    let win = Window::sized(16, 16);
    for i in 0..3u64 {
        client.send(&request(2 + i, 0, 10 + i, win)).expect("send queued");
    }
    std::thread::sleep(std::time::Duration::from_millis(150)); // all admitted

    let drainer = std::thread::spawn(move || server.drain());
    std::thread::sleep(std::time::Duration::from_millis(150)); // flag is up

    // New work is rejected with the typed, retryable Draining kind...
    client.send(&request(9, 0, 99, win)).expect("send probe");
    let mut outcomes = std::collections::HashMap::new();
    for _ in 0..5 {
        let (id, outcome) = client.recv().expect("all responses flush before close");
        outcomes.insert(id, outcome);
    }
    match outcomes.remove(&9).expect("probe answered") {
        Err(ServeError::Remote(e)) => {
            assert_eq!(e.kind, ErrorKind::Draining, "typed draining rejection");
            assert!(e.kind.is_retryable(), "Draining must be retryable for failover");
        }
        other => panic!("expected a Draining rejection, got {other:?}"),
    }
    // ...while every admitted job completed and flushed, bit-correct.
    outcomes.remove(&1).expect("slow job answered").expect("slow job served");
    for i in 0..3u64 {
        let grid = outcomes.remove(&(2 + i)).expect("queued job answered").expect("served");
        assert_eq!(hash_grid(&grid), hash_grid(&direct(truncation_of(0), 10 + i, win)));
    }

    let report = drainer.join().expect("drain returns");
    assert!(
        report.counter(stage::SERVE_DRAINING_REJECT) >= 1,
        "the probe rejection must tick serve/draining_reject: {}",
        report.to_json("")
    );
    assert_eq!(report.counter(stage::SERVE_GENERATE), 4, "exactly the admitted jobs ran");

    // The drained server is gone: new connections fail typed + retryable.
    match Client::connect(addr) {
        Err(ServeError::Transport(e)) => {
            assert_eq!(e.kind(), ErrorKind::Unavailable);
            assert!(e.kind().is_retryable());
        }
        Ok(_) => panic!("drained server accepted a connection"),
        Err(other) => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn read_timeout_spares_a_quiet_connection_with_work_in_flight() {
    // A pipelining client goes quiet after sending: it is waiting on
    // responses, not slow-lorising. With queue wait + generation far
    // past the read deadline, the reader must keep the connection open
    // while requests are in flight — and reap it once it is truly idle.
    let config = ServeConfig {
        workers: 1,
        max_batch: 1,
        read_timeout: Some(std::time::Duration::from_millis(50)),
        ..ServeConfig::default()
    };
    let server = serve(config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // A deliberately heavy Direct job (single in-generator worker,
    // ~1.7·10⁹ multiply-adds), with a fast job queued behind it — both
    // responses land long after 50 ms.
    let slow = GenerateRequest::new(1, 0, 1, spectrum(), Window::sized(320, 320))
        .with_sizing(12.0, 128, 128)
        .with_workers(1)
        .with_backend(ConvBackend::Direct);
    client.send(&slow).expect("send slow");
    let win = Window::sized(16, 16);
    client.send(&request(2, 0, 9, win)).expect("send fast behind it");

    for _ in 0..2 {
        let (id, outcome) = client.recv().expect("the deadline must not sever in-flight work");
        let grid = outcome.expect("served");
        if id == 2 {
            assert_eq!(hash_grid(&grid), hash_grid(&direct(truncation_of(0), 9, win)));
        }
    }

    // All responses flushed: the connection is now genuinely idle, so
    // the same deadline reaps it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.report().counter(stage::SERVE_CONN_TIMEOUT) == 0 {
        assert!(std::time::Instant::now() < deadline, "idle connection was never reaped");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn slow_loris_peer_is_reaped_and_the_server_stays_available() {
    let config = ServeConfig {
        read_timeout: Some(std::time::Duration::from_millis(200)),
        ..ServeConfig::default()
    };
    let server = serve(config).expect("bind");

    // A peer that sends half a frame header and then goes quiet.
    use std::io::{Read, Write};
    let mut loris = std::net::TcpStream::connect(server.addr()).expect("connect");
    loris.write_all(&wire::MAGIC[..3]).expect("dribble");
    loris.flush().expect("flush");

    // The reader thread must reap the connection at the deadline.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.report().counter(stage::SERVE_CONN_TIMEOUT) == 0 {
        assert!(std::time::Instant::now() < deadline, "stalled peer was never reaped");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // Our end sees the close (EOF), not a hang.
    loris.set_read_timeout(Some(std::time::Duration::from_secs(5))).expect("timeout");
    let n = loris.read(&mut [0u8; 16]).expect("server closed cleanly");
    assert_eq!(n, 0, "expected EOF after the reap");

    // And the server still serves fresh connections.
    let mut client = Client::connect(server.addr()).expect("connect after reap");
    client.try_generate(&request(1, 0, 5, Window::sized(16, 16))).expect("still serving");
    server.shutdown();
}

#[test]
fn per_connection_in_flight_cap_rejects_with_connection_busy() {
    use rrs::serve::OverloadReason;
    let config = ServeConfig { workers: 1, max_conn_in_flight: 1, ..ServeConfig::default() };
    let server = serve(config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // The slot-holder: a Direct job slow on any machine — single
    // worker, ~4·10⁹ multiply-adds — so it is still generating when
    // the pipelined frame below is admitted.
    let slow = GenerateRequest::new(1, 0, 1, spectrum(), Window::sized(512, 512))
        .with_sizing(12.0, 128, 128)
        .with_workers(1)
        .with_backend(ConvBackend::Direct);
    client.send(&slow).expect("send slow");
    std::thread::sleep(std::time::Duration::from_millis(100)); // admitted
    client.send(&request(2, 0, 2, Window::sized(16, 16))).expect("send second");
    let mut saw_busy = false;
    for _ in 0..2 {
        let (id, outcome) = client.recv().expect("response");
        match outcome {
            Err(ServeError::Overloaded { reason: OverloadReason::ConnectionBusy, .. }) => {
                assert_eq!(id, 2, "the pipelined request is the rejected one");
                saw_busy = true;
            }
            Ok(_) => assert_eq!(id, 1, "only the slot-holder may succeed"),
            Err(e) => panic!("unexpected failure for request {id}: {e}"),
        }
    }
    assert!(saw_busy, "the per-connection cap never triggered");
    assert!(server.report().counter(stage::SERVE_CONN_BUSY) >= 1);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_over_tcp_at_every_boundary_is_typed_never_partial() {
    use std::io::{Read, Write};
    // A fake server that reads the request, then dies `keep` bytes into
    // a perfectly valid response frame — the TCP image of a server
    // crashing mid-write.
    let ok = wire::GenerateOk {
        request_id: 1,
        grid: Grid2::from_fn(4, 3, |x, y| (x as f64) - 0.5 * (y as f64)),
    };
    let mut clean = Vec::new();
    wire::write_frame(&mut clean, FrameKind::GenerateOk, &ok.encode()).expect("encode");
    let n = clean.len();

    let req = request(1, 0, 7, Window::sized(4, 3));
    let mut req_frame = Vec::new();
    wire::write_frame(&mut req_frame, FrameKind::Generate, &req.encode()).expect("encode");
    let req_len = req_frame.len();

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let frame = clean.clone();
    let fake = std::thread::spawn(move || {
        for keep in 0..n {
            let (mut s, _) = listener.accept().expect("accept");
            // Drain the whole request so the close below is a clean FIN
            // (unread inbound bytes would turn it into an RST).
            let mut sink = vec![0u8; req_len];
            let _ = s.read_exact(&mut sink);
            s.write_all(&frame[..keep]).expect("truncated write");
            // drop(s): the connection dies `keep` bytes into the frame
        }
    });
    for keep in 0..n {
        let mut client = Client::connect(addr).expect("connect");
        match client.try_generate(&req) {
            Err(ServeError::Transport(e)) => {
                assert_eq!(
                    e.kind(),
                    ErrorKind::CorruptSnapshot,
                    "truncation at {keep}/{n} bytes must be a typed framing error, got {e}"
                );
            }
            Ok(_) => panic!("truncation at {keep}/{n} bytes yielded a (partial?) window"),
            Err(other) => panic!("truncation at {keep}/{n}: unexpected {other:?}"),
        }
    }
    fake.join().expect("fake server");
}
