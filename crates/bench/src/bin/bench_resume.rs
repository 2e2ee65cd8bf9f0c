//! Crash-safe streaming ablation: what does checkpointing after every
//! tile cost?
//!
//! The resumable state of a sequential strip stream is 40 bytes —
//! (seed, height, cursor) plus magic and checksum. This suite measures a
//! strip-generation tile alone, the same tile plus an in-memory
//! checkpoint encode, and the same tile plus a durable file-backed
//! checkpoint (create + write + fsync), in [`paired`] reps of one block
//! of [`TILES_PER_BLOCK`] tiles each, the tile alone first in the
//! rotation. It reports each checkpoint's median ratio to the tile alone
//! and its spread. The
//! overhead is not small: the fsync costs about a third of a
//! millisecond, against under a millisecond for a 256×64 tile on the
//! 2-vCPU bench host, so a durable checkpoint after every tile adds
//! tens of percent (`BENCH_resume.json`).
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_resume`;
//! writes `BENCH_resume.json`. Pass `--obs` to time strip generation and
//! the checkpoint write/fsync stages separately and embed the breakdown
//! as an `"obs"` section — the write-vs-fsync split is the interesting
//! figure on most filesystems.

use rrs_bench::harness::{paired, per_call_ns, Bound};
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
/// Paired reps.
const PAIRS: u64 = 21;
/// Tiles per variant per rep: about 8 ms of strip generation.
const TILES_PER_BLOCK: usize = 8;

fn checkpoint_of(sg: &StripGenerator) -> StreamCheckpoint {
    StreamCheckpoint { seed: sg.seed(), height: sg.height() as u64, cursor: sg.cursor() }
}

fn main() {
    let obs_on = std::env::args().any(|a| a == "--obs");
    let rec = if obs_on { Recorder::enabled() } else { Recorder::disabled() };
    let mut h = Harness::new("resume").with_reps(PAIRS);
    let pairs = h.reps() as usize;

    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let stream = || {
        StripGenerator::new(&s, KernelSizing::default(), NY, 11)
            .with_context(GenContext::new().with_recorder(rec.clone()))
    };
    let dir = std::env::var("RRS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = format!("{dir}/bench_resume.ckpt");

    // One tile of each variant; every variant streams its own generator
    // over the same strips.
    type Tile<'a> = Box<dyn FnMut(&mut StripGenerator) + 'a>;
    let variants: [(&str, Tile); 3] = [
        ("strip_only", Box::new(|sg| {
            black_box(sg.next_strip(STRIP_W));
        })),
        ("strip_plus_mem_checkpoint", Box::new(|sg| {
            let strip = sg.next_strip(STRIP_W);
            let mut buf = Vec::with_capacity(64);
            write_checkpoint(&mut buf, &checkpoint_of(sg)).expect("encode");
            black_box((strip, buf));
        })),
        ("strip_plus_file_checkpoint", Box::new(|sg| {
            let strip = sg.next_strip(STRIP_W);
            write_checkpoint_file(&path, &checkpoint_of(sg), &rec).expect("checkpoint");
            black_box(strip);
        })),
    ];
    let mut variants = variants.map(|(name, tile)| (name, tile, stream()));
    for (_, tile, sg) in &mut variants {
        tile(sg); // warm-up: plans, kernel spectrum, noise window
    }
    let p = paired(pairs, variants.len(), |i| {
        let (_, tile, sg) = &mut variants[i];
        per_call_ns(TILES_PER_BLOCK, || tile(sg))
    });
    for ((name, _, _), samples) in variants.iter().zip(p.times) {
        h.record(&format!("resume/{name}"), Some((NY * STRIP_W) as u64), samples);
    }
    for ((name, _, _), ratios) in variants.iter().zip(&p.ratios).skip(1) {
        h.gate(&format!("resume/{name}_over_strip_only"), ratios, Bound::Reported);
    }

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
    let direct = median("file_checkpoint_only") / median("strip_only") * 100.0;
    println!("checkpoint overhead [direct measure]: {direct:.1}% per tile");
}
