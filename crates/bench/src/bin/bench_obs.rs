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
//! The guard compares min-of-reps (the stablest point estimate under
//! scheduler noise) and allows a generous 1.5× ratio: the real figure
//! should be ~1.0, and anything past 1.5× means a genuine hot-loop cost,
//! not jitter. Enabled-recorder overhead is reported for information but
//! not gated — it buys the stage breakdown and is allowed to cost a few
//! percent.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_obs`; writes
//! `BENCH_obs.json`.

use rrs_bench::Harness;
use rrs_grid::Window;
use rrs_obs::Recorder;
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{ConvolutionGenerator, ConvolutionKernel, GenContext, KernelSizing, NoiseField};
use std::hint::black_box;

const N: usize = 192;

fn main() {
    let mut h = Harness::new("obs").with_reps(15);

    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(42);
    let win = Window::sized(N, N);

    let plain = ConvolutionGenerator::from_kernel(kernel.clone())
        .with_context(GenContext::new().with_workers(1));
    h.bench_elems("obs/baseline_no_recorder", (N * N) as u64, || {
        black_box(plain.generate(&noise, win))
    });

    let disabled = ConvolutionGenerator::from_kernel(kernel.clone())
        .with_context(
            GenContext::new()
                .with_workers(1)
                .with_recorder(Recorder::disabled()),
        );
    h.bench_elems("obs/disabled_recorder", (N * N) as u64, || {
        black_box(disabled.generate(&noise, win))
    });

    let rec = Recorder::enabled();
    let enabled = ConvolutionGenerator::from_kernel(kernel)
        .with_context(GenContext::new().with_workers(1).with_recorder(rec.clone()));
    h.bench_elems("obs/enabled_recorder", (N * N) as u64, || {
        black_box(enabled.generate(&noise, win))
    });

    // Cross-check while we are here: observation must never steer output.
    assert_eq!(
        plain.generate(&noise, win),
        enabled.generate(&noise, win),
        "enabled recorder changed the surface"
    );

    let records = h.finish().expect("write BENCH_obs.json");
    let min_of = |name: &str| {
        records
            .iter()
            .find(|r| r.name.ends_with(name))
            .map(|r| r.min_ns)
            .expect("record present")
    };
    let base = min_of("baseline_no_recorder");
    let disabled_ratio = min_of("disabled_recorder") / base;
    let enabled_ratio = min_of("enabled_recorder") / base;
    println!("disabled/baseline (min-of-reps): {disabled_ratio:.3}x  (gate: < 1.5x)");
    println!("enabled/baseline  (min-of-reps): {enabled_ratio:.3}x  (informational)");

    if disabled_ratio >= 1.5 {
        eprintln!(
            "FAIL: the disabled recorder costs {disabled_ratio:.3}x baseline — \
             the obs hooks are no longer free when off"
        );
        std::process::exit(1);
    }
    println!("obs overhead gate passed");
}
