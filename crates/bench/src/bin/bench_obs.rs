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
//! The three run in [`paired`] reps of one block of
//! [`CALLS_PER_BLOCK`] generations each, baseline first in the rotation.
//! The gate reads the median of the `disabled / baseline` ratios against
//! [`MAX_DISABLED_RATIO`].
//! Enabled-recorder overhead is reported for information but not gated —
//! it buys the stage breakdown and is allowed to cost a few percent.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_obs`; writes
//! `BENCH_obs.json` (`RRS_BENCH_REPS` sets the pair count).

use rrs_bench::harness::{paired, per_call_ns, Bound};
use rrs_bench::Harness;
use rrs_grid::{Grid2, Window};
use rrs_obs::Recorder;
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{ConvolutionGenerator, ConvolutionKernel, GenContext, KernelSizing, NoiseField};
use std::hint::black_box;

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

    let p = paired(pairs, variants.len(), |i| {
        per_call_ns(CALLS_PER_BLOCK, || {
            black_box(variants[i].1.generate(&noise, win));
        })
    });
    for ((name, _), samples) in variants.iter().zip(p.times) {
        h.record(&format!("obs/{name}"), Some((N * N) as u64), samples);
    }
    let free = h.gate(
        "obs/disabled_recorder_over_baseline",
        &p.ratios[1],
        Bound::Below(MAX_DISABLED_RATIO),
    );
    h.gate("obs/enabled_recorder_over_baseline", &p.ratios[2], Bound::Reported);
    h.finish().expect("write BENCH_obs.json");
    if !free {
        std::process::exit(1);
    }
    println!("obs overhead gate passed");
}
