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
//! It also gates the weight lookups ([`weights_gate`]): every sample's
//! `weights_at` over Figures 3 and 4, on the figures' own maps and on the
//! [`rrs_bench::reference_weights`] maps that keep the formulas they
//! replaced, in [`WEIGHT_PAIRS`] paired reps. **Fails** if any sample of
//! the four figures gets different weight bits from its reference, or if
//! either figure's median paired `reference / current` ratio is below
//! [`MIN_WEIGHTS_SPEEDUP`].
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_figures`;
//! writes `BENCH_figures.json` (`RRS_BENCH_REPS` sets the pair count of
//! the backend gate).

use rrs_bench::figures::{all_figures, Figure};
use rrs_bench::harness::{paired, Bound, Paired};
use rrs_bench::Harness;
use rrs_grid::{Grid2, Window};
use rrs_inhomo::WeightMap;
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
/// The figures whose weights pass the weights gate times.
const WEIGHT_FIGURES: [&str; 2] = ["fig3", "fig4"];
/// Paired reps of the weights gate.
const WEIGHT_PAIRS: usize = 15;
/// Gate on each timed figure's median paired `reference / current`
/// ratio of a whole weights pass. Over 12 runs of this suite on the
/// 2-vCPU bench host the medians read 1.81–2.06 for Figure 3 and
/// 1.35–1.43 for Figure 4 (per-pair ratios 0.96–2.58); 1.2 sits 0.15
/// below the lowest, so the reference formulas (1.0) fail it and host
/// noise does not.
const MIN_WEIGHTS_SPEEDUP: f64 = 1.2;

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
            let ctx = fig.generator.context().clone().with_recorder(rec.clone());
            let fig = Figure { generator: fig.generator.with_context(ctx), ..fig };
            timed(&fig);
            let blended = fig.generator.resolved_backend() != ConvBackend::Direct;
            let report = rec.report();
            let count = report.durations.get(stage::WINDOW_MATERIALISE).map_or(0, |d| d.count);
            (fig.id, blended, count)
        })
        .collect()
}

/// Every sample of `fig`'s window, in the coordinates the generator
/// looks its weights up at.
fn samples(fig: &Figure) -> impl Iterator<Item = (f64, f64)> + '_ {
    let (x0, y0) = fig.origin;
    (0..fig.ny as i64)
        .flat_map(move |iy| (0..fig.nx as i64).map(move |ix| ((x0 + ix) as f64, (y0 + iy) as f64)))
}

/// One weights pass: every sample's lookup on `map`, row by row as the
/// generator's scan makes them; returns the time in ns.
fn weights_pass(map: &dyn WeightMap, fig: &Figure) -> f64 {
    let (x0, y0) = fig.origin;
    let mut weights = Vec::with_capacity(map.kernel_count());
    let t0 = Instant::now();
    for iy in 0..fig.ny as i64 {
        for ix in 0..fig.nx as i64 {
            map.weights_at((x0 + ix) as f64, (y0 + iy) as f64, &mut weights);
            black_box(&weights);
        }
    }
    t0.elapsed().as_nanos() as f64
}

/// Per figure: how many samples get weights whose indices, order or bits
/// differ from the reference map's.
fn weight_mismatches(figs: &[Figure]) -> Vec<(&'static str, usize)> {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    figs.iter()
        .map(|fig| {
            let reference = fig.layout.reference();
            let differ = samples(fig)
                .filter(|&(x, y)| {
                    fig.generator.map().weights_at(x, y, &mut got);
                    reference.weights_at(x, y, &mut want);
                    let bits = |w: &[(usize, f64)]| -> Vec<(usize, u64)> {
                        w.iter().map(|&(k, g)| (k, g.to_bits())).collect()
                    };
                    bits(&got) != bits(&want)
                })
                .count();
            (fig.id, differ)
        })
        .collect()
}

/// Per timed figure: its id and its weights passes on the figure's own
/// map (variant 0) and on the reference map (variant 1), in
/// [`WEIGHT_PAIRS`] [`paired`] reps.
fn weights_gate(figs: &[Figure]) -> Vec<(&'static str, Paired)> {
    figs.iter()
        .filter(|fig| WEIGHT_FIGURES.contains(&fig.id))
        .map(|fig| {
            // The layout itself, not the box around it: one dynamic call
            // per lookup on both sides, as in the generator.
            let current: &dyn WeightMap = &**fig.generator.map();
            let reference = fig.layout.reference();
            let maps = [current, &*reference];
            for map in maps {
                weights_pass(map, fig);
            }
            (fig.id, paired(WEIGHT_PAIRS, 2, |i| weights_pass(maps[i], fig)))
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
    let sets = paired(pairs, 2, |i| match i {
        0 => time_set(&default, &mut per_fig_default),
        _ => time_set(&direct, &mut per_fig_direct),
    });

    let samples: u64 = direct.iter().map(|f| (f.nx * f.ny) as u64).sum();
    for ((fig, d), a) in direct.iter().zip(per_fig_direct).zip(per_fig_default) {
        let elems = Some((fig.nx * fig.ny) as u64);
        h.record(&format!("paper_figures/{}/direct", fig.id), elems, d);
        h.record(&format!("paper_figures/{}/default", fig.id), elems, a);
    }
    h.record("paper_figures/set/direct", Some(samples), sets.times[1].clone());
    h.record("paper_figures/set/default", Some(samples), sets.times[0].clone());
    let label = "paper_figures/set/direct_over_default";
    let mut failed = !h.gate(label, &sets.ratios[1], Bound::AtLeast(MIN_SPEEDUP));
    h.attach_section("mismatched_figures", mismatched.to_string());
    let counts: Vec<String> = windows.iter().map(|(id, _, n)| format!("\"{id}\": {n}")).collect();
    h.attach_section("noise_windows", format!("{{{}}}", counts.join(", ")));

    let mismatches = weight_mismatches(&default);
    let differing: usize = mismatches.iter().map(|&(_, n)| n).sum();
    for (id, passes) in weights_gate(&default) {
        let fig = default.iter().find(|f| f.id == id).expect("timed figure exists");
        let elems = Some((fig.nx * fig.ny) as u64);
        h.record(&format!("weights/{id}/current"), elems, passes.times[0].clone());
        h.record(&format!("weights/{id}/reference"), elems, passes.times[1].clone());
        let label = format!("weights/{id}/reference_over_current");
        failed |= !h.gate(&label, &passes.ratios[1], Bound::AtLeast(MIN_WEIGHTS_SPEEDUP));
    }
    let mismatch_json: Vec<String> =
        mismatches.iter().map(|(id, n)| format!("\"{id}\": {n}")).collect();
    h.attach_section("mismatched_weights", format!("{{{}}}", mismatch_json.join(", ")));
    h.finish().expect("write BENCH_figures.json");

    if mismatched != 0 {
        eprintln!("FAIL: {mismatched} figures differ from Direct by more than 1e-9 relative");
        failed = true;
    }
    if !extra_windows.is_empty() {
        eprintln!("FAIL: blended figures {extra_windows:?} materialise more than one noise window");
        failed = true;
    }
    if differing != 0 {
        eprintln!(
            "FAIL: {differing} samples' weights differ from the reference maps: {mismatches:?}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "figures gate passed: >= {MIN_SPEEDUP}x Direct, every figure within 1e-9, \
         one noise window per blended figure, weights bit-identical to the reference maps \
         and >= {MIN_WEIGHTS_SPEEDUP}x faster on {WEIGHT_FIGURES:?}"
    );
}
