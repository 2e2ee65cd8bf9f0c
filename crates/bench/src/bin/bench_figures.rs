//! End-to-end generation cost of the paper's four figures at scale 1/4
//! (the geometry and spectra mix are the paper's; only linear dimensions
//! shrink — the `figures` workload of the repository benchmark), on the
//! explicit `Direct` backend (the per-sample loop) and on the default
//! context (`Auto`: the kernel-major blend on the real-input FFT engine).
//!
//! The two backends are timed in paired reps: each rep generates the
//! four figures once per backend, back to back, in an order that
//! alternates between reps, and keeps the ratio of the two set times.
//! The gate reads the median of those per-pair ratios, so drift in the
//! host's speed that hits both halves of a pair cancels out.
//!
//! **Fails** (exit code 1) unless the default context is at least
//! [`MIN_SPEEDUP`]x faster than `Direct` over the four-figure set, if
//! any default-context figure differs from its `Direct` twin by more
//! than 1e-9 relative, or if a blended figure materialises more than one
//! noise window (counted from an enabled recorder in one untimed pass —
//! a count, so the gate cannot flake). At scale 1/8 fig4's gain is only
//! about 3–4x (its 10-kernel blend is dominated by per-kernel fixed
//! costs), which is why the gate runs at 1/4.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_figures`;
//! writes `BENCH_figures.json` (`RRS_BENCH_REPS` sets the pair count).

use rrs_bench::figures::{all_figures, Figure};
use rrs_bench::harness::median_of_sorted;
use rrs_bench::Harness;
use rrs_grid::{Grid2, Window};
use rrs_obs::{stage, Recorder};
use rrs_surface::{ConvBackend, GenContext, NoiseField};
use std::hint::black_box;
use std::time::Instant;

const SCALE: f64 = 0.25;
/// Kernel truncation of the `reproduce` binary's default run.
const TRUNC_EPS: f64 = 0.01;
/// Paired reps when `RRS_BENCH_REPS` is unset.
const PAIRS: u64 = 5;
/// Minimum median paired speed-up of the default context over `Direct`.
const MIN_SPEEDUP: f64 = 5.0;

fn window(fig: &Figure) -> Window {
    Window::new(fig.origin.0, fig.origin.1, fig.nx, fig.ny)
}

/// Generates one figure, returning the surface and the wall time in ns.
fn timed(fig: &Figure) -> (Grid2<f64>, f64) {
    let noise = NoiseField::new(fig.seed);
    let t0 = Instant::now();
    let surface = black_box(fig.generator.generate(&noise, window(fig)));
    (surface, t0.elapsed().as_nanos() as f64)
}

/// Generates the four figures once, appending each figure's time to
/// `per_fig`; returns the set's total in ns.
fn time_set(figs: &[Figure], per_fig: &mut [Vec<f64>]) -> f64 {
    let mut total = 0.0;
    for (fig, times) in figs.iter().zip(per_fig) {
        let t = timed(fig).1;
        times.push(t);
        total += t;
    }
    total
}

/// Per default-context figure: its id, whether it runs the blend, and
/// how many noise windows one generation materialises
/// (`window/materialise` spans on an enabled recorder).
fn noise_windows() -> Vec<(&'static str, bool, u64)> {
    all_figures(SCALE, TRUNC_EPS, 1)
        .into_iter()
        .map(|fig| {
            let rec = Recorder::enabled();
            let fig = Figure { generator: fig.generator.with_recorder(rec.clone()), ..fig };
            timed(&fig);
            let blended = fig.generator.resolved_backend() != ConvBackend::Direct;
            let report = rec.report();
            let count = report.durations.get(stage::WINDOW_MATERIALISE).map_or(0, |d| d.count);
            (fig.id, blended, count)
        })
        .collect()
}

/// Largest |a − b| relative to `a`'s largest magnitude.
fn max_rel_err(a: &Grid2<f64>, b: &Grid2<f64>) -> f64 {
    let scale = a.as_slice().iter().map(|v| v.abs()).fold(0.0, f64::max).max(1e-30);
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max) / scale
}

fn main() {
    let mut h = Harness::new("figures").with_reps(PAIRS);
    let pairs = h.reps() as usize;
    let direct_ctx = GenContext::new().with_backend(ConvBackend::Direct);
    let direct: Vec<Figure> = all_figures(SCALE, TRUNC_EPS, 1)
        .into_iter()
        .map(|f| Figure { generator: f.generator.with_context(direct_ctx.clone()), ..f })
        .collect();
    let default = all_figures(SCALE, TRUNC_EPS, 1);

    // Warm-up pass doubling as the correctness check.
    let mut mismatched = 0;
    for (d, a) in direct.iter().zip(&default) {
        let err = max_rel_err(&timed(d).0, &timed(a).0);
        println!("{}: default vs Direct max relative error {err:.2e}", d.id);
        if err > 1e-9 {
            mismatched += 1;
        }
    }
    let windows = noise_windows();
    for &(id, blended, count) in &windows {
        println!("{id}: {count} noise window(s) materialised (blend: {blended})");
    }
    let extra_windows: Vec<&str> =
        windows.iter().filter(|&&(_, blended, n)| blended && n > 1).map(|w| w.0).collect();

    let mut per_fig_direct = vec![Vec::new(); direct.len()];
    let mut per_fig_default = vec![Vec::new(); default.len()];
    let mut set_direct = Vec::with_capacity(pairs);
    let mut set_default = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for rep in 0..pairs {
        // Alternate which backend goes first so a first-half advantage
        // averages out across reps.
        let (td, ta) = if rep % 2 == 0 {
            let td = time_set(&direct, &mut per_fig_direct);
            (td, time_set(&default, &mut per_fig_default))
        } else {
            let ta = time_set(&default, &mut per_fig_default);
            (time_set(&direct, &mut per_fig_direct), ta)
        };
        set_direct.push(td);
        set_default.push(ta);
        ratios.push(td / ta);
    }

    let samples: u64 = direct.iter().map(|f| (f.nx * f.ny) as u64).sum();
    for ((fig, d), a) in direct.iter().zip(per_fig_direct).zip(per_fig_default) {
        let elems = Some((fig.nx * fig.ny) as u64);
        h.record(&format!("paper_figures/{}/direct", fig.id), elems, d);
        h.record(&format!("paper_figures/{}/default", fig.id), elems, a);
    }
    h.record("paper_figures/set/direct", Some(samples), set_direct);
    h.record("paper_figures/set/default", Some(samples), set_default);
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let speedup = median_of_sorted(&ratios);
    println!(
        "default vs Direct over the four figures: median paired speed-up {speedup:.2}x \
         (ratios {:.2}..{:.2}, {pairs} pairs)",
        ratios[0],
        ratios[ratios.len() - 1]
    );
    h.attach_section(
        "paired",
        format!(
            "{{\"scale\": {SCALE}, \"pairs\": {pairs}, \"median_speedup\": {speedup:.3}, \
             \"min_ratio\": {:.3}, \"max_ratio\": {:.3}, \"gate_min_speedup\": {MIN_SPEEDUP}, \
             \"mismatched_figures\": {mismatched}}}",
            ratios[0],
            ratios[ratios.len() - 1]
        ),
    );
    let counts: Vec<String> = windows.iter().map(|(id, _, n)| format!("\"{id}\": {n}")).collect();
    h.attach_section("noise_windows", format!("{{{}}}", counts.join(", ")));
    h.finish().expect("write BENCH_figures.json");

    let mut failed = false;
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: the default context is only {speedup:.2}x Direct (gate: {MIN_SPEEDUP}x)");
        failed = true;
    }
    if mismatched != 0 {
        eprintln!("FAIL: {mismatched} figures differ from Direct by more than 1e-9 relative");
        failed = true;
    }
    if !extra_windows.is_empty() {
        eprintln!("FAIL: blended figures {extra_windows:?} materialise more than one noise window");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "figures gate passed: {speedup:.2}x >= {MIN_SPEEDUP}x, every figure within 1e-9, \
         one noise window per blended figure"
    );
}
