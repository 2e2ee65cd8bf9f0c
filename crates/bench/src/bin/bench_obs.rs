//! Observability overhead guard.
//!
//! The `rrs-obs` contract is that a disabled recorder is free: every hook
//! reduces to one `Option` discriminant test and never reads the clock.
//! This suite measures the same generation workload three ways — no
//! recorder touched (the pre-obs baseline shape), a disabled recorder
//! threaded through every hook, and an enabled recorder — and **fails**
//! (exit code 1) if the disabled path is measurably slower than baseline,
//! so a regression that sneaks clock reads or locks into the hot loops
//! breaks CI rather than silently taxing every caller.
//!
//! The three run in paired reps: each rep times a block of
//! [`CALLS_PER_BLOCK`] generations of every variant back to back, in an
//! order that rotates between reps, and keeps each variant's ratio to
//! the baseline from that rep, so drift in the host's speed that hits a
//! whole rep cancels out of its ratios. The gate reads the median of the
//! `disabled / baseline` ratios against [`MAX_DISABLED_RATIO`].
//! Enabled-recorder overhead is reported for information but not gated —
//! it buys the stage breakdown and is allowed to cost a few percent.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_obs`; writes
//! `BENCH_obs.json` (`RRS_BENCH_REPS` sets the pair count).

use rrs_bench::harness::median_of_sorted;
use rrs_bench::Harness;
use rrs_grid::{Grid2, Window};
use rrs_obs::Recorder;
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{ConvolutionGenerator, ConvolutionKernel, GenContext, KernelSizing, NoiseField};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 192;
/// Paired reps when `RRS_BENCH_REPS` is unset.
const PAIRS: u64 = 15;
/// Generations per variant per rep: one is about a millisecond, so a
/// block is long enough for the clock and short enough to pair well.
const CALLS_PER_BLOCK: usize = 16;
/// Gate on the median paired `disabled / baseline` ratio. Over 12 runs of
/// this suite on the 2-vCPU bench host the median read 0.92–1.02
/// (per-pair ratios 0.67–1.65); 1.15 sits more than the spread of those
/// medians above the highest. The min-of-reps gate this replaces allowed
/// 1.5x.
const MAX_DISABLED_RATIO: f64 = 1.15;

fn main() {
    let mut h = Harness::new("obs").with_reps(PAIRS);
    let pairs = h.reps() as usize;

    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(42);
    let win = Window::sized(N, N);
    let generator =
        |ctx: GenContext| ConvolutionGenerator::from_kernel(kernel.clone()).with_context(ctx);

    let plain = generator(GenContext::new().with_workers(1));
    let disabled = generator(GenContext::new().with_workers(1).with_recorder(Recorder::disabled()));
    let enabled = generator(GenContext::new().with_workers(1).with_recorder(Recorder::enabled()));
    let variants: [(&str, &ConvolutionGenerator); 3] = [
        ("baseline_no_recorder", &plain),
        ("disabled_recorder", &disabled),
        ("enabled_recorder", &enabled),
    ];

    // Cross-check while we are here: observation must never steer output.
    let surfaces: Vec<Grid2<f64>> = variants.iter().map(|(_, g)| g.generate(&noise, win)).collect();
    assert!(
        surfaces.iter().all(|s| *s == surfaces[0]),
        "a recorder changed the surface"
    );

    let mut per_call: Vec<Vec<f64>> = vec![Vec::with_capacity(pairs); variants.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(pairs); variants.len()];
    for rep in 0..pairs {
        let mut block = [0.0f64; 3];
        for i in (0..variants.len()).map(|k| (k + rep) % variants.len()) {
            let t0 = Instant::now();
            for _ in 0..CALLS_PER_BLOCK {
                black_box(variants[i].1.generate(&noise, win));
            }
            block[i] = t0.elapsed().as_nanos() as f64;
        }
        for (i, &t) in block.iter().enumerate() {
            per_call[i].push(t / CALLS_PER_BLOCK as f64);
            ratios[i].push(t / block[0]);
        }
    }
    for ((name, _), samples) in variants.iter().zip(per_call) {
        h.record(&format!("obs/{name}"), Some((N * N) as u64), samples);
    }
    let summary: Vec<(f64, f64, f64)> = ratios
        .iter_mut()
        .map(|r| {
            r.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            (median_of_sorted(r), r[0], r[r.len() - 1])
        })
        .collect();
    let entries: Vec<String> = variants
        .iter()
        .zip(&summary)
        .skip(1)
        .map(|((name, _), (median, lo, hi))| {
            format!("\"{name}\": {{\"median\": {median:.3}, \"min\": {lo:.3}, \"max\": {hi:.3}}}")
        })
        .collect();
    h.attach_section(
        "paired_over_baseline",
        format!(
            "{{\"pairs\": {pairs}, \"calls_per_block\": {CALLS_PER_BLOCK}, \
             \"gate_max_disabled\": {MAX_DISABLED_RATIO}, {}}}",
            entries.join(", ")
        ),
    );
    h.finish().expect("write BENCH_obs.json");

    let (disabled_ratio, lo, hi) = summary[1];
    let (enabled_ratio, elo, ehi) = summary[2];
    println!(
        "disabled/baseline (median of {pairs} paired ratios): {disabled_ratio:.3}x \
         [{lo:.3}, {hi:.3}]  (gate: < {MAX_DISABLED_RATIO}x)"
    );
    println!(
        "enabled/baseline  (median of {pairs} paired ratios): {enabled_ratio:.3}x \
         [{elo:.3}, {ehi:.3}]  (informational)"
    );
    if disabled_ratio >= MAX_DISABLED_RATIO {
        eprintln!(
            "FAIL: the disabled recorder costs {disabled_ratio:.3}x baseline — \
             the obs hooks are no longer free when off"
        );
        std::process::exit(1);
    }
    println!("obs overhead gate passed");
}
