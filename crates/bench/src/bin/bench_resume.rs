//! Crash-safe streaming ablation: what does checkpointing after every
//! tile cost?
//!
//! The resumable state of a sequential strip stream is 40 bytes —
//! (seed, height, cursor) plus magic and checksum. This suite measures a
//! strip-generation tile alone, the same tile plus an in-memory
//! checkpoint encode, and the same tile plus a durable file-backed
//! checkpoint (create + write + fsync), in paired reps: each rep times a
//! block of [`TILES_PER_BLOCK`] tiles of every variant back to back, in
//! an order that rotates between reps, and keeps each variant's ratio to
//! the tile alone, so a slow rep of the shared host cancels out of its
//! ratios. It reports the median paired ratio and its spread. The
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
use rrs_bench::harness::median_of_sorted;
use std::hint::black_box;
use std::time::Instant;

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
    let mut per_tile: Vec<Vec<f64>> = vec![Vec::with_capacity(pairs); variants.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(pairs); variants.len()];
    for rep in 0..pairs {
        let mut block = [0.0f64; 3];
        let n = variants.len();
        for i in (0..n).map(|k| (k + rep) % n) {
            let (_, tile, sg) = &mut variants[i];
            let t0 = Instant::now();
            for _ in 0..TILES_PER_BLOCK {
                tile(sg);
            }
            block[i] = t0.elapsed().as_nanos() as f64;
        }
        for (i, &t) in block.iter().enumerate() {
            per_tile[i].push(t / TILES_PER_BLOCK as f64);
            ratios[i].push(t / block[0]);
        }
    }
    for ((name, _, _), samples) in variants.iter().zip(per_tile) {
        h.record(&format!("resume/{name}"), Some((NY * STRIP_W) as u64), samples);
    }
    let mut entries = Vec::new();
    let mut overheads = Vec::new();
    for ((name, _, _), r) in variants.iter().zip(&mut ratios).skip(1) {
        r.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (median, lo, hi) = (median_of_sorted(r), r[0], r[r.len() - 1]);
        entries.push(format!(
            "\"{name}\": {{\"median\": {median:.3}, \"min\": {lo:.3}, \"max\": {hi:.3}}}"
        ));
        overheads.push((*name, median, lo, hi));
    }
    h.attach_section(
        "paired_over_strip_only",
        format!(
            "{{\"pairs\": {pairs}, \"tiles_per_block\": {TILES_PER_BLOCK}, {}}}",
            entries.join(", ")
        ),
    );

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
    for (variant, ratio, lo, hi) in overheads {
        let pct = |r: f64| (r - 1.0) * 100.0;
        println!(
            "checkpoint overhead [{variant}]: {:+.1}% per tile (median of {pairs} paired \
             ratios; {:+.1}% to {:+.1}%)",
            pct(ratio),
            pct(lo),
            pct(hi)
        );
    }
    let direct = median("file_checkpoint_only") / median("strip_only") * 100.0;
    println!("checkpoint overhead [direct measure]: {direct:.1}% per tile");
}
