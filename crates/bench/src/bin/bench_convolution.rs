//! Convolution backend benchmarks and dispatch gate.
//!
//! Measures three configurations on the `kernel_scaling` shapes
//! (Gaussian, `KernelSizing::default()`, 128×128 output):
//!
//! * `direct` — [`ConvBackend::Direct`], the spatial reference loop;
//! * `rfft` — [`ConvBackend::FftOverlapSave`] at one worker: the
//!   real-input half-size-trick pipeline, serial tile loop;
//! * `rfft_par` — the same engine at [`PAR_WORKERS`] workers (parallel
//!   tile dispatch; on shapes that fit one tile the engine clamps to a
//!   serial run, so this row also documents the clamp's overhead-freeness).
//!
//! It also times one 512² overlap-save tile — the `cl32` shape's single
//! tile — two ways, in paired reps ([`tile_gate`]): `tile/512/real` is
//! [`RealFft2d::convolve`], the engine's tile; `tile/512/complex`
//! is the full-complex tile the engine replaced: a scalar complex forward
//! transform ([`ScalarFft2d`], one row or column at a time through the
//! public `Fft::process`), a pointwise multiply by the kernel spectrum,
//! an inverse transform of the same tile.
//!
//! **Fails** (exit code 1) if any of:
//!
//! * the real-input engine is not at least 6× the direct loop on the
//!   `cl32` shape (the seed complex engine measured 12.6×; the real-input
//!   refactor re-measured 25.3× — 6× leaves room for machine noise, not
//!   drift);
//! * the real-input tile is not at least [`MIN_TILE_SPEEDUP`]× the
//!   complex tile (median of paired ratios): the half-size trick halves
//!   transform arithmetic, and the batched split-complex transforms with
//!   the fused column block and pruned inverse rows do the rest;
//! * [`ConvBackend::Auto`] resolves to a backend measurably slower than
//!   the other engine on any measured shape — i.e. the
//!   `AUTO_CROSSOVER_KERNEL_AREA` model has drifted from reality.
//!
//! `crossover/k13..k31` probes ride along informationally: cropped
//! kernels bracketing the modelled crossover area show which side of the
//! Direct/rfft boundary this machine actually favours.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_convolution`;
//! writes `BENCH_convolution.json` with a `dispatch` section recording
//! per-shape minima and the resolved backend, and the paired tile ratios
//! under `paired`.

use rrs_bench::harness::{paired, per_call_ns, Bound, Paired};
use rrs_bench::{Harness, ScalarFft2d};
use rrs_fft::{Direction, RealFft2d, RealTile};
use rrs_grid::Window;
use rrs_num::Complex64;
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{
    ConvBackend, ConvolutionGenerator, ConvolutionKernel, GenContext, KernelSizing, NoiseField,
};
use std::hint::black_box;

const OUT: usize = 128;
/// Pinned worker count for the `rfft_par` rows: fixed (not
/// `available_parallelism`) so the JSON is comparable across hosts.
const PAR_WORKERS: usize = 4;
/// Side of the gated tile: the `cl32` shape's one overlap-save tile.
const TILE: usize = 512;
/// Paired tile reps.
const TILE_PAIRS: usize = 15;
/// Gate on the median paired `complex / real` tile ratio. Over 12 runs
/// of this suite on the 2-vCPU bench host the median read 6.50–7.77
/// (per-pair ratios 4.69–10.70); 3.5 sits near half the lowest median,
/// so losing most of what the batched transforms gained fails it and
/// host noise does not.
const MIN_TILE_SPEEDUP: f64 = 3.5;

/// Times the real-input tile (variant 0) against the complex one
/// (variant 1) in [`TILE_PAIRS`] [`paired`] reps, after checking that
/// both produce the same valid outputs.
fn tile_gate(kernel: &ConvolutionKernel, noise: &NoiseField) -> Paired {
    let (kw, kh) = kernel.extent();
    let weights = kernel.weights();
    let seg = noise.window(0, 0, TILE, TILE);

    // The complex tile: kernel zero-padded at the origin and transformed
    // once, then per tile a gather, forward, multiply and inverse.
    let fft = ScalarFft2d::new(TILE, TILE);
    let mut kspec_c = vec![Complex64::ZERO; TILE * TILE];
    for b in 0..kh {
        for (a, &v) in weights.row(b).iter().enumerate() {
            kspec_c[b * TILE + a] = Complex64::from_re(v);
        }
    }
    fft.process(&mut kspec_c, Direction::Forward);
    let mut tile_c = vec![Complex64::ZERO; TILE * TILE];
    let complex_tile = |tile: &mut [Complex64]| {
        for (z, &v) in tile.iter_mut().zip(&seg) {
            *z = Complex64::from_re(v);
        }
        fft.process(tile, Direction::Forward);
        for (z, k) in tile.iter_mut().zip(&kspec_c) {
            *z *= *k;
        }
        fft.process(tile, Direction::Inverse);
        black_box(tile[0]);
    };

    // The real-input tile: read straight from the segment, a column-block
    // kernel spectrum, and only the valid output rows inverted.
    let rfft = RealFft2d::new(TILE, TILE);
    let kspec_r = rfft.forward(RealTile { data: weights.as_slice(), pitch: kw, width: kw, height: kh });
    let mut work = rfft.workspace();
    let valid = kh - 1..TILE;
    let mut out = vec![0.0; TILE * TILE];
    let real_tile = |work: &mut _, out: &mut [f64]| {
        let input = RealTile { data: &seg, pitch: TILE, width: TILE, height: TILE };
        let mut emit = |y: usize, row: &[f64]| out[y * TILE..][..TILE].copy_from_slice(row);
        rfft.convolve(input, &kspec_r, valid.clone(), work, &mut emit);
        black_box(out[0]);
    };

    complex_tile(&mut tile_c);
    real_tile(&mut work, &mut out);
    let scale = seg.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for y in valid.clone() {
        for x in kw - 1..TILE {
            let (c, r) = (tile_c[y * TILE + x].re, out[y * TILE + x]);
            assert!((c - r).abs() <= 1e-9 * scale, "tiles disagree at ({x}, {y}): {c} vs {r}");
        }
    }

    paired(TILE_PAIRS, 2, |i| match i {
        0 => per_call_ns(1, || real_tile(&mut work, &mut out)),
        _ => per_call_ns(1, || complex_tile(&mut tile_c)),
    })
}

struct Shape {
    label: String,
    kernel: ConvolutionKernel,
    gated: bool,
}

fn main() {
    let mut h = Harness::new("convolution").with_reps(5);
    let noise = NoiseField::new(1);
    let win = Window::sized(OUT, OUT);

    let mut shapes: Vec<Shape> = [8.0, 16.0, 32.0]
        .iter()
        .map(|&cl| {
            let s = Gaussian::new(SurfaceParams::isotropic(1.0, cl));
            Shape {
                label: format!("cl{}", cl as u64),
                kernel: ConvolutionKernel::build(&s, KernelSizing::default()),
                gated: cl == 32.0,
            }
        })
        .collect();
    // Crossover probes: cropped kernels bracketing the modelled
    // AUTO_CROSSOVER_KERNEL_AREA, where Direct and the real-input engine
    // trade places — informational (the exact boundary is machine- and
    // noise-sensitive), never gated.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let base = ConvolutionKernel::build(&s, KernelSizing::default());
    for r in [6i64, 9, 12, 15] {
        let kernel = base.crop(r, r);
        shapes.push(Shape {
            label: format!("k{}", 2 * r + 1),
            kernel,
            gated: false,
        });
    }

    let mut dispatch_entries: Vec<String> = Vec::new();
    let mut failed = false;

    for shape in &shapes {
        let crossover = shape.label.starts_with('k');
        let group = if crossover { "crossover" } else { "backend" };
        // Crossover probes only need the two engines Auto picks between;
        // backend shapes also time the parallel tile dispatch.
        let engines: &[(&str, ConvBackend, usize)] = if crossover {
            &[
                ("direct", ConvBackend::Direct, 1),
                ("rfft", ConvBackend::FftOverlapSave, 1),
            ]
        } else {
            &[
                ("direct", ConvBackend::Direct, 1),
                ("rfft", ConvBackend::FftOverlapSave, 1),
                ("rfft_par", ConvBackend::FftOverlapSave, PAR_WORKERS),
            ]
        };
        let mut mins = vec![0.0f64; engines.len()];
        for (i, &(tag, backend, workers)) in engines.iter().enumerate() {
            let gen = ConvolutionGenerator::from_kernel(shape.kernel.clone())
                .with_context(
                    GenContext::new()
                        .with_workers(workers)
                        .with_backend(backend),
                );
            h.bench_elems(
                &format!("{group}/{}/{tag}", shape.label),
                (OUT * OUT) as u64,
                || black_box(gen.generate(&noise, win)),
            );
            mins[i] = h.last_record().expect("just recorded").min_ns;
        }
        let min_of = |tag: &str| {
            engines
                .iter()
                .position(|&(t, _, _)| t == tag)
                .map(|i| mins[i])
        };
        let direct_min = min_of("direct").expect("direct always measured");
        let rfft_min = min_of("rfft").expect("rfft always measured");

        let auto = ConvolutionGenerator::from_kernel(shape.kernel.clone())
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::Auto),
            );
        let resolved = auto.resolved_backend();
        h.bench_elems(&format!("{group}/{}/auto", shape.label), (OUT * OUT) as u64, || {
            black_box(auto.generate(&noise, win))
        });

        let ratio = direct_min / rfft_min;
        let (kw, kh) = shape.kernel.extent();
        println!(
            "{}/{}: kernel {kw}x{kh}, direct/rfft (min-of-reps) = {ratio:.2}x, Auto -> {resolved:?}",
            group, shape.label
        );
        let mut entry = format!(
            "{{\"shape\": \"{}\", \"kernel\": [{kw}, {kh}], \"direct_min_ns\": {direct_min:.1}, \
             \"rfft_min_ns\": {rfft_min:.1}, \"direct_over_rfft\": {ratio:.3}",
            shape.label
        );
        if let Some(par_min) = min_of("rfft_par") {
            entry.push_str(&format!(", \"rfft_par_min_ns\": {par_min:.1}"));
        }
        entry.push_str(&format!(", \"auto_resolved\": \"{resolved:?}\"}}"));
        dispatch_entries.push(entry);

        if shape.gated && ratio < 6.0 {
            eprintln!(
                "FAIL: real-input FFT engine is only {ratio:.2}x the direct loop on {} \
                 (gate: >= 6x)",
                shape.label
            );
            failed = true;
        }
        // Auto must land on the measured winner; 10% slack absorbs timing
        // noise on shapes where the engines are close.
        let (resolved_min, other_min) = match resolved {
            ConvBackend::FftOverlapSave => (rfft_min, direct_min),
            _ => (direct_min, rfft_min),
        };
        if group == "backend" && resolved_min > other_min * 1.1 {
            eprintln!(
                "FAIL: Auto resolved to {resolved:?} on {} but the other backend is \
                 {:.2}x faster — AUTO_CROSSOVER_KERNEL_AREA no longer matches this machine",
                shape.label,
                resolved_min / other_min
            );
            failed = true;
        }
    }

    h.attach_section("dispatch", format!("[{}]", dispatch_entries.join(", ")));

    let cl32 = shapes.iter().find(|s| s.gated).expect("cl32 is gated");
    let tile = tile_gate(&cl32.kernel, &noise);
    let elems = Some((TILE * TILE) as u64);
    h.record(&format!("tile/{TILE}/complex"), elems, tile.times[1].clone());
    h.record(&format!("tile/{TILE}/real"), elems, tile.times[0].clone());
    let label = format!("tile/{TILE}/complex_over_real");
    failed |= !h.gate(&label, &tile.ratios[1], Bound::AtLeast(MIN_TILE_SPEEDUP));
    h.finish().expect("write BENCH_convolution.json");

    if failed {
        std::process::exit(1);
    }
    println!("convolution backend gates passed");
}
