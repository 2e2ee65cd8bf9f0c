//! Crash-safe streaming ablation: what does checkpointing after every
//! tile cost?
//!
//! The resumable state of a sequential strip stream is 40 bytes —
//! (seed, height, cursor) plus magic and checksum — so the expectation
//! is that per-tile checkpointing is noise next to tile generation.
//! This suite measures a strip-generation tile alone, the same tile plus
//! an in-memory checkpoint encode, and the same tile plus a durable
//! file-backed checkpoint (create + write + fsync), and reports the
//! relative overhead. Target: < 2% per tile for the durable variant.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_resume`;
//! writes `BENCH_resume.json`. Pass `--obs` to time strip generation and
//! the checkpoint write/fsync stages separately and embed the breakdown
//! as an `"obs"` section — the write-vs-fsync split is the interesting
//! figure on most filesystems.

use rrs_bench::Harness;
use rrs_chaos::ChaosInjector;
use rrs_error::Budget;
use rrs_io::{
    write_checkpoint, write_checkpoint_file, write_checkpoint_file_resilient, RetryPolicy,
    StreamCheckpoint,
};
use rrs_obs::Recorder;
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{GenContext, KernelSizing, StripGenerator};
use std::hint::black_box;

const NY: usize = 256;
const STRIP_W: usize = 64;

fn checkpoint_of(sg: &StripGenerator) -> StreamCheckpoint {
    StreamCheckpoint { seed: sg.seed(), height: sg.height() as u64, cursor: sg.cursor() }
}

fn main() {
    let obs_on = std::env::args().any(|a| a == "--obs");
    let rec = if obs_on { Recorder::enabled() } else { Recorder::disabled() };
    let mut h = Harness::new("resume").with_reps(20);

    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let mut sg = StripGenerator::new(&s, KernelSizing::default(), NY, 11)
        .with_context(GenContext::new().with_recorder(rec.clone()));

    h.bench_elems("resume/strip_only", (NY * STRIP_W) as u64, || {
        black_box(sg.next_strip(STRIP_W))
    });

    let mut sg = StripGenerator::new(&s, KernelSizing::default(), NY, 11)
        .with_context(GenContext::new().with_recorder(rec.clone()));
    h.bench_elems("resume/strip_plus_mem_checkpoint", (NY * STRIP_W) as u64, || {
        let strip = sg.next_strip(STRIP_W);
        let mut buf = Vec::with_capacity(64);
        write_checkpoint(&mut buf, &checkpoint_of(&sg)).expect("encode");
        black_box((strip, buf))
    });

    let dir = std::env::var("RRS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/bench_resume.ckpt");
    let mut sg = StripGenerator::new(&s, KernelSizing::default(), NY, 11)
        .with_context(GenContext::new().with_recorder(rec.clone()));
    h.bench_elems("resume/strip_plus_file_checkpoint", (NY * STRIP_W) as u64, || {
        let strip = sg.next_strip(STRIP_W);
        write_checkpoint_file(&path, &checkpoint_of(&sg), &rec).expect("checkpoint");
        black_box(strip)
    });

    let sg = StripGenerator::new(&s, KernelSizing::default(), NY, 11);
    h.bench("resume/file_checkpoint_only", || {
        write_checkpoint_file(&path, &checkpoint_of(&sg), &rec).expect("checkpoint");
    });

    // The production streaming loop wraps the durable write in a retry
    // policy; on a healthy disk every write succeeds first try, so this
    // measures the policy's bookkeeping overhead and (with --obs) surfaces
    // the retry/attempts counter in the report.
    h.bench("resume/file_checkpoint_retrying", || {
        write_checkpoint_file_resilient(
            &path,
            &checkpoint_of(&sg),
            RetryPolicy::default(),
            &rec,
            &Budget::unlimited(),
            &ChaosInjector::disabled(),
        )
        .expect("checkpoint");
    });

    if obs_on {
        let report = rec.report();
        println!("\nstage breakdown (--obs):");
        for (name, hist) in &report.durations {
            println!(
                "  {name:<28} count {:>8}  total {:>12} ns  mean {:>12.0} ns",
                hist.count,
                hist.total_ns,
                hist.mean_ns(),
            );
        }
        for (name, value) in &report.counters {
            println!("  {name:<28} {value}");
        }
        h.attach_section("obs", report.to_json("  "));
    }

    let records = h.finish().expect("write BENCH_resume.json");
    let _ = std::fs::remove_file(&path);

    let median = |name: &str| {
        records
            .iter()
            .find(|r| r.name.ends_with(name))
            .map(|r| r.median_ns)
            .expect("record present")
    };
    let base = median("strip_only");
    for variant in ["strip_plus_mem_checkpoint", "strip_plus_file_checkpoint"] {
        let pct = (median(variant) - base) / base * 100.0;
        println!("checkpoint overhead [{variant}]: {pct:+.3}% per tile (diff of medians)");
    }
    // The diff of two ~50 ms medians is dominated by run-to-run noise;
    // the directly timed checkpoint write is the robust overhead figure.
    let direct = median("file_checkpoint_only") / base * 100.0;
    println!("checkpoint overhead [direct measure]: {direct:.3}% per tile (target < 2%)");
}
