//! Loopback contract tests for the serving front-end: a real server on
//! 127.0.0.1, a real TCP client, and the library called directly as the
//! reference.
//!
//! The headline promise is *transparency*: a served window is
//! bit-identical to calling the generator in-process with the same
//! spectrum, sizing, truncation, seed and window — for every backend.
//! Around it sit the scheduler's contracts: typed overload rejections
//! before any queueing, per-tenant quotas, per-request budgets, batch
//! coalescing over the shared plan cache, and a metrics endpoint.

use rrs::obs::stage;
use rrs::prelude::*;
use rrs::serve::{serve, OverloadReason};

fn spectrum() -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(1.2, 5.0))
}

/// The direct in-process reference for a served request.
fn direct(
    model: &SpectrumModel,
    truncation: Option<f64>,
    sizing: KernelSizing,
    backend: ConvBackend,
    seed: u64,
    win: Window,
) -> Grid2<f64> {
    let mut kernel = ConvolutionKernel::build(model, sizing);
    if let Some(eps) = truncation {
        kernel = kernel.try_truncated(eps, &Recorder::disabled()).expect("valid epsilon");
    }
    ConvolutionGenerator::from_kernel(kernel)
        .with_backend(backend)
        .generate(&NoiseField::new(seed), win)
}

#[test]
fn served_windows_are_bit_identical_to_direct_generation_across_backends() {
    let server = serve(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let model = spectrum();
    let win = Window::new(-5, 3, 40, 32);
    for (i, backend) in [ConvBackend::Direct, ConvBackend::FftOverlapSave, ConvBackend::Auto]
        .into_iter()
        .enumerate()
    {
        let req = GenerateRequest::new(i as u64 + 1, 0, 0xBEE5 + i as u64, model, win)
            .with_truncation(1e-3)
            .with_sizing(6.0, 8, 64)
            .with_backend(backend);
        let served = client.try_generate(&req).expect("served window");
        let reference = direct(
            &model,
            Some(1e-3),
            KernelSizing::Auto { factor: 6.0, min: 8, max: 64 },
            backend,
            0xBEE5 + i as u64,
            win,
        );
        assert_eq!(served, reference, "served != direct for {backend:?}");
    }
    server.shutdown();
}

#[test]
fn client_worker_counts_are_capped_at_the_machine_parallelism() {
    // Uncapped, u16::MAX workers would fan this 48-row Direct window out
    // to one thread per row; the server runs it on at most
    // `default_workers()` bands, with the same bits.
    let server = serve(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let model = spectrum();
    let win = Window::new(-3, 7, 40, 48);
    let req = GenerateRequest::new(1, 0, 0x5EED, model, win)
        .with_truncation(1e-3)
        .with_sizing(6.0, 8, 64)
        .with_backend(ConvBackend::Direct)
        .with_workers(u16::MAX);
    let before = server.report().counter(stage::PAR_BANDS);
    let served = client.try_generate(&req).expect("served window");
    let bands = server.report().counter(stage::PAR_BANDS) - before;
    let sizing = KernelSizing::Auto { factor: 6.0, min: 8, max: 64 };
    let reference = direct(&model, Some(1e-3), sizing, ConvBackend::Direct, 0x5EED, win);
    assert_eq!(served, reference, "a capped request must keep its bits");
    let cap = rrs::par::default_workers() as u64;
    assert!((1..=cap).contains(&bands), "{bands} bands for a cap of {cap}");
    server.shutdown();
}

#[test]
fn coalesced_batches_share_one_kernel_and_the_plan_cache() {
    // One worker: while it grinds the slow Direct-backend job, the
    // pipelined same-key FFT jobs pile up and drain as one batch.
    let config = ServeConfig { workers: 1, max_batch: 16, ..ServeConfig::default() };
    let server = serve(config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let model = spectrum();
    let win = Window::sized(48, 48);

    // Warm the kernel cache for the batch key so the batch itself is
    // pure generation (and pure plan-cache hits after the first).
    let warm = GenerateRequest::new(1, 0, 1, model, win)
        .with_truncation(1e-3)
        .with_sizing(6.0, 8, 64)
        .with_backend(ConvBackend::FftOverlapSave);
    let warm_grid = client.try_generate(&warm).expect("warm-up");

    // The slow blocker: a big window on the Direct backend, different
    // key, so the worker is busy while the batch queues behind it.
    let slow = GenerateRequest::new(2, 0, 2, spectrum(), Window::sized(192, 192))
        .with_sizing(12.0, 96, 128)
        .with_backend(ConvBackend::Direct);
    client.send(&slow).expect("send slow");

    let batch: Vec<GenerateRequest> = (0..8)
        .map(|i| {
            let mut r = warm;
            r.request_id = 10 + i;
            r.seed = 100 + i;
            r
        })
        .collect();
    for r in &batch {
        client.send(r).expect("send batch member");
    }
    for _ in 0..9 {
        let (_, outcome) = client.recv().expect("response");
        outcome.expect("all jobs succeed");
    }
    // Same seed as the warm-up ⇒ same bits, through the cached kernel.
    let again = {
        let mut r = warm;
        r.request_id = 99;
        client.try_generate(&r).expect("re-served")
    };
    assert_eq!(again, warm_grid, "cached kernel changed the output");

    let report = server.report();
    assert!(
        report.counter(stage::SERVE_COALESCED) >= 1,
        "expected at least one coalesced job, report: {}",
        report.to_json("")
    );
    // 11 requests, but only two distinct keys ⇒ exactly two kernel
    // builds; every other lookup (one per batch, not per request) hits.
    assert_eq!(
        report.counter(stage::SERVE_KERNEL_MISS),
        2,
        "same-key requests must reuse the cached kernel: {}",
        report.to_json("")
    );
    assert!(
        report.counter(stage::SERVE_KERNEL_HIT) >= 1,
        "batch must hit the kernel cache: {}",
        report.to_json("")
    );
    assert!(
        report.counter(stage::FFT_PLAN_HIT) > report.counter(stage::FFT_PLAN_MISS),
        "a warm batch must hit the shared plan cache more than it misses: hits {} misses {}",
        report.counter(stage::FFT_PLAN_HIT),
        report.counter(stage::FFT_PLAN_MISS)
    );
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_a_typed_overload_before_queueing() {
    // Capacity 0: admission control must reject every request up front.
    let config = ServeConfig { queue_capacity: 0, ..ServeConfig::default() };
    let server = serve(config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let req = GenerateRequest::new(1, 0, 7, spectrum(), Window::sized(16, 16));
    match client.try_generate(&req) {
        Err(ServeError::Overloaded { reason: OverloadReason::QueueFull, .. }) => {}
        other => panic!("expected QueueFull overload, got {other:?}"),
    }
    assert!(server.report().counter(stage::SERVE_OVERLOADED) >= 1);
    server.shutdown();
}

#[test]
fn tenant_in_flight_quota_rejects_the_second_request() {
    let config = ServeConfig {
        workers: 1,
        tenant_quotas: vec![(5, TenantQuota { max_in_flight: 1, ..TenantQuota::default() })],
        ..ServeConfig::default()
    };
    let server = serve(config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // Occupy tenant 5's single slot with a slow Direct-backend job...
    let slow = GenerateRequest::new(1, 5, 1, spectrum(), Window::sized(192, 192))
        .with_sizing(12.0, 96, 128)
        .with_backend(ConvBackend::Direct);
    client.send(&slow).expect("send slow");
    // ...then hit the cap with a second request for the same tenant.
    let second = GenerateRequest::new(2, 5, 2, spectrum(), Window::sized(16, 16));
    client.send(&second).expect("send second");
    let mut saw_quota_rejection = false;
    for _ in 0..2 {
        let (id, outcome) = client.recv().expect("response");
        match outcome {
            Err(ServeError::Overloaded { reason: OverloadReason::TenantQuota, .. }) => {
                assert_eq!(id, 2, "the second request is the rejected one");
                saw_quota_rejection = true;
            }
            Ok(_) => assert_eq!(id, 1, "only the slow job may succeed"),
            Err(e) => panic!("unexpected failure for request {id}: {e}"),
        }
    }
    assert!(saw_quota_rejection, "tenant quota never triggered");
    // Another tenant is unaffected.
    let other = GenerateRequest::new(3, 6, 3, spectrum(), Window::sized(16, 16));
    client.try_generate(&other).expect("other tenants keep flowing");
    server.shutdown();
}

#[test]
fn byte_quota_rejects_typed_before_any_allocation() {
    let config = ServeConfig {
        tenant_quotas: vec![(
            9,
            TenantQuota { max_request_bytes: 1024, ..TenantQuota::default() },
        )],
        ..ServeConfig::default()
    };
    let server = serve(config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // 64×64×8 = 32768 bytes > the 1024-byte ceiling.
    let req = GenerateRequest::new(1, 9, 7, spectrum(), Window::sized(64, 64));
    match client.try_generate(&req) {
        Err(ServeError::Remote(e)) => {
            assert_eq!(e.kind, ErrorKind::BudgetExceeded);
            assert_eq!(e.required_bytes, 64 * 64 * 8);
            assert_eq!(e.max_bytes, 1024);
        }
        other => panic!("expected a typed BudgetExceeded, got {other:?}"),
    }
    // Nothing was queued or generated for it.
    assert_eq!(server.report().counter(stage::SERVE_GENERATE), 0);
    server.shutdown();
}

#[test]
fn an_oversized_kernel_lattice_is_rejected_typed_and_the_connection_keeps_serving() {
    let server = serve(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // A tiny window whose kernel is not: cl = 1e6 at factor 8 resolves
    // to an 8e6 × 8e6 lattice once `sizing_max` no longer caps it.
    let huge = SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 1e6));
    let win = Window::sized(16, 16);
    let req = GenerateRequest::new(1, 0, 3, huge, win).with_sizing(8.0, 16, u32::MAX);
    match client.try_generate(&req) {
        Err(ServeError::Remote(e)) => {
            assert_eq!(e.kind, ErrorKind::BudgetExceeded);
            let lattice = 8_000_000u64 * 8_000_000;
            assert_eq!(e.required_bytes, 16 * 16 * 8 + lattice * 32);
            assert_eq!(e.max_bytes, TenantQuota::default().max_request_bytes as u64);
        }
        other => panic!("expected a typed BudgetExceeded, got {other:?}"),
    }
    let report = server.report();
    assert_eq!(report.counter(stage::SERVE_KERNEL_MISS), 0, "no kernel build started");
    assert_eq!(report.counter(stage::SERVE_GENERATE), 0);

    // The same connection serves the next request, bit-identical to
    // direct generation.
    let model = spectrum();
    let next = GenerateRequest::new(2, 0, 9, model, win).with_sizing(6.0, 8, 64);
    let served = client.try_generate(&next).expect("served window");
    let sizing = KernelSizing::Auto { factor: 6.0, min: 8, max: 64 };
    assert_eq!(served, direct(&model, None, sizing, next.options.backend, 9, win));
    server.shutdown();
}

#[test]
fn per_request_budgets_ride_the_wire() {
    let server = serve(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let model = spectrum();
    let win = Window::sized(32, 32);

    // A byte ceiling below the request's own footprint trips the
    // generator's admission control (not the tenant quota).
    let starved = GenerateRequest::new(1, 0, 5, model, win).with_max_bytes(64);
    match client.try_generate(&starved) {
        Err(ServeError::Remote(e)) => assert_eq!(e.kind, ErrorKind::BudgetExceeded),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }

    // A generous armed deadline changes nothing: still bit-identical to
    // the direct call (armed-idle budgets are inert).
    let deadlined = GenerateRequest::new(2, 0, 5, model, win)
        .with_truncation(1e-3)
        .with_sizing(6.0, 8, 64)
        .with_deadline_ms(60_000);
    let served = client.try_generate(&deadlined).expect("within deadline");
    let reference = direct(
        &model,
        Some(1e-3),
        KernelSizing::Auto { factor: 6.0, min: 8, max: 64 },
        ConvBackend::Direct,
        5,
        win,
    );
    assert_eq!(served, reference, "an armed-idle deadline changed the bits");
    server.shutdown();
}

#[test]
fn malformed_and_bit_flipped_frames_get_typed_errors_over_tcp() {
    use rrs::serve::wire::{read_frame, write_frame, FrameKind};
    use std::io::Write;

    let server = serve(ServeConfig::default()).expect("bind");

    // Garbage that never was a frame: the server answers with a typed
    // CorruptSnapshot error and hangs up.
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(b"XXXXXXXXXXXXXXXXXXXXXXXX").expect("write garbage");
    raw.flush().expect("flush");
    let (kind, payload) = read_frame(&mut raw.try_clone().expect("clone"))
        .expect("server reply")
        .expect("typed reply before hang-up");
    assert_eq!(kind, FrameKind::GenerateErr);
    let err = rrs::serve::GenerateErr::decode(&payload).expect("decodable");
    assert_eq!(err.kind, ErrorKind::CorruptSnapshot);

    // A real frame with one flipped payload bit: checksum catches it,
    // same typed rejection.
    let req = GenerateRequest::new(1, 0, 7, spectrum(), Window::sized(16, 16));
    let mut buf = Vec::new();
    write_frame(&mut buf, FrameKind::Generate, &req.encode()).expect("encode");
    buf[20] ^= 0x04;
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&buf).expect("write flipped frame");
    raw.flush().expect("flush");
    let (kind, payload) = read_frame(&mut raw.try_clone().expect("clone"))
        .expect("server reply")
        .expect("typed reply before hang-up");
    assert_eq!(kind, FrameKind::GenerateErr);
    let err = rrs::serve::GenerateErr::decode(&payload).expect("decodable");
    assert_eq!(err.kind, ErrorKind::CorruptSnapshot);
    server.shutdown();
}

#[test]
fn bad_frames_get_a_typed_error_and_eof_after_the_replies_pipelined_before_them() {
    use rrs::serve::wire::{read_frame, write_frame, FrameKind};
    use std::io::Write;

    let server = serve(ServeConfig::default()).expect("bind");
    let win = Window::new(-5, 3, 40, 32);
    let req = GenerateRequest::new(5, 0, 11, spectrum(), win).with_backend(ConvBackend::Direct);
    let mut valid = Vec::new();
    write_frame(&mut valid, FrameKind::Generate, &req.encode()).expect("encode");
    // Three ways to end a connection. A valid request in the retired
    // first framing, byte by byte: magic "RRSF", kind, length and payload
    // under a byte-wise FNV-1a checksum.
    let payload = req.encode();
    let mut head = vec![FrameKind::Generate as u8];
    head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = rrs::num::fnv1a_extend(rrs::num::fnv1a(&head), &payload);
    let rrsf = [b"RRSF".as_slice(), &head, &payload, &crc.to_le_bytes()].concat();
    // A current frame whose checksum fails.
    let mut flipped = valid.clone();
    flipped[20] ^= 0x04;
    // A well-formed response kind, which the server never accepts.
    let mut pong = Vec::new();
    write_frame(&mut pong, FrameKind::Pong, &[]).expect("encode");
    for bad in [rrsf, flipped, pong] {
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
        // A server that never hangs up fails this test instead of hanging it.
        raw.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("read timeout");
        // One write: the bad frame reaches the server while the valid
        // request ahead of it is still queued or generating.
        raw.write_all(&[valid.as_slice(), bad.as_slice()].concat()).expect("write");
        raw.flush().expect("flush");
        let mut reader = raw.try_clone().expect("clone");
        let (mut served, mut rejected) = (None, None);
        while let Some((kind, reply)) = read_frame(&mut reader).expect("typed frames, then EOF") {
            match kind {
                FrameKind::GenerateOk => {
                    served = Some(rrs::serve::wire::GenerateOk::decode(&reply).expect("decodable"))
                }
                FrameKind::GenerateErr => {
                    rejected = Some(rrs::serve::GenerateErr::decode(&reply).expect("decodable"))
                }
                other => panic!("unexpected reply kind {other:?}"),
            }
        }
        let err = rejected.expect("the bad frame gets a typed reply");
        assert_eq!(err.kind, ErrorKind::CorruptSnapshot, "{}", err.message);
        let ok = served.expect("the request pipelined before the bad frame is answered");
        assert_eq!(ok.request_id, 5);
        let reference = direct(
            &spectrum(),
            None,
            KernelSizing::default(),
            ConvBackend::Direct,
            11,
            win,
        );
        assert_eq!(ok.grid, reference, "the pipelined reply must be bit-exact");
    }
    server.shutdown();
}

#[test]
fn retired_backend_byte_gets_a_typed_invalid_param_over_tcp() {
    use rrs::serve::wire::{read_frame, write_frame, FrameKind};
    use std::io::Write;

    let server = serve(ServeConfig::default()).expect("bind");
    // A well-formed request whose backend byte — just before workers,
    // deadline and byte ceiling (2 + 4 + 8 bytes) — names the retired
    // FftComplexSerial engine (wire byte 2). The frame checksum covers
    // the patched payload, so only the decoder can reject it.
    let req = GenerateRequest::new(41, 0, 7, spectrum(), Window::sized(16, 16))
        .with_backend(ConvBackend::FftOverlapSave);
    let mut payload = req.encode();
    let at = payload.len() - 15;
    assert_eq!(payload[at], 1, "FftOverlapSave's wire byte");
    payload[at] = 2;
    let mut buf = Vec::new();
    write_frame(&mut buf, FrameKind::Generate, &payload).expect("encode");
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(&buf).expect("write frame");
    raw.flush().expect("flush");
    let (kind, reply) = read_frame(&mut raw.try_clone().expect("clone"))
        .expect("server reply")
        .expect("typed reply");
    assert_eq!(kind, FrameKind::GenerateErr);
    let err = rrs::serve::GenerateErr::decode(&reply).expect("decodable");
    assert_eq!(err.kind, ErrorKind::InvalidParam, "{}", err.message);
    assert_eq!(err.request_id, 41, "the rejection correlates to the request");
    assert!(err.message.contains("FftComplexSerial"), "{}", err.message);
    server.shutdown();
}

#[test]
fn metrics_endpoint_serves_the_obs_report() {
    let server = serve(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.ping().expect("ping");
    let req = GenerateRequest::new(1, 0, 7, spectrum(), Window::sized(16, 16));
    client.try_generate(&req).expect("served");
    let json = client.metrics().expect("metrics");
    assert!(json.starts_with('{') && json.ends_with('}'), "not a JSON object: {json}");
    for needle in ["\"serve/requests\"", "\"serve/generate\"", "\"counters\"", "\"durations\""] {
        assert!(json.contains(needle), "metrics JSON missing {needle}: {json}");
    }
    // The handle-side report agrees.
    assert!(server.report().counter(stage::SERVE_REQUESTS) >= 1);
    server.shutdown();
}
