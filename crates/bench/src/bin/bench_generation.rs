//! Homogeneous generation benchmarks — the quantitative backbone of the
//! paper's §4 remarks:
//!
//! * `kernel_scaling` (claim C3): convolution time grows with the
//!   weighting-array size, i.e. with correlation length;
//! * `kernel_truncation` (ablation): the §2.4 "reduce the size of the
//!   weighting array" trade-off;
//! * `direct_vs_conv` (claim C2 cost side): where the one-shot FFT method
//!   beats per-sample convolution and vice versa;
//! * `parallel_scaling` (ablation): row-band workers;
//! * `streaming` (claim C4): successive-computation throughput;
//! * `noise` (cost side of eqn 36's lattice): `NoiseField`'s window fill
//!   against pointwise `NoiseField::at` over the same window, in
//!   [`paired`] reps. The paired ratio is printed and written under
//!   `paired`, not gated: it spreads too widely for a threshold.
//!
//! Every convolution row runs on [`ConvBackend::Direct`] — the paper's
//! per-sample convolution, whose cost these claims are about (the FFT
//! engines have their own suite, `bench_convolution`).
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_generation`;
//! writes `BENCH_generation.json` — the perf baseline future PRs diff
//! against. Pass `--obs` to attach an enabled `rrs_obs::Recorder` to
//! every generator and embed the stage breakdown (kernel build / window
//! materialise / correlate / per-band counters) as an `"obs"` section of
//! the JSON report.

use rrs_bench::harness::{paired, Bound};
use rrs_bench::Harness;
use rrs_grid::Window;
use rrs_obs::Recorder;
use rrs_spectrum::{Gaussian, GridSpec, SurfaceParams};
use rrs_surface::{
    ConvBackend, ConvolutionGenerator, ConvolutionKernel, DirectDftGenerator, GenContext,
    KernelSizing, NoiseField, StripGenerator,
};
use std::hint::black_box;
use std::time::Instant;

const OUT: usize = 128;

/// The ways `bench_generation` fills a noise window.
#[derive(Clone, Copy)]
enum NoiseFill {
    /// [`NoiseField::window_into`].
    Window,
    /// One [`NoiseField::at`] per sample.
    Pointwise,
}

/// Nanoseconds to fill `buf` with the `w × h` noise window at the origin.
fn time_noise(seed: u64, w: usize, h: usize, fill: NoiseFill, buf: &mut Vec<f64>) -> f64 {
    let noise = NoiseField::new(seed);
    let t0 = Instant::now();
    match fill {
        NoiseFill::Window => noise.window_into(0, 0, w, h, buf),
        NoiseFill::Pointwise => {
            buf.clear();
            buf.extend(
                (0..h as i64).flat_map(|iy| (0..w as i64).map(move |ix| noise.at(ix, iy))),
            );
        }
    }
    black_box(&buf);
    t0.elapsed().as_nanos() as f64
}

fn main() {
    let obs_on = std::env::args().any(|a| a == "--obs");
    let rec = if obs_on { Recorder::enabled() } else { Recorder::disabled() };
    let mut h = Harness::new("generation");

    let noise = NoiseField::new(1);
    let out_win = Window::sized(OUT, OUT);
    for cl in [4.0, 8.0, 16.0, 32.0] {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, cl));
        let kernel = ConvolutionKernel::build_observed(&s, KernelSizing::default(), &rec);
        let gen = ConvolutionGenerator::from_kernel(kernel).with_context(
            GenContext::new()
                .with_workers(1)
                .with_backend(ConvBackend::Direct)
                .with_recorder(rec.clone()),
        );
        h.bench_elems(&format!("kernel_scaling/cl{}", cl as u64), (OUT * OUT) as u64, || {
            black_box(gen.generate(&noise, out_win))
        });
    }

    let noise = NoiseField::new(2);
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 12.0));
    let full = ConvolutionKernel::build_observed(&s, KernelSizing::default(), &rec);
    for (label, kernel) in [
        ("full", full.clone()),
        ("eps1e-1", full.try_truncated(1e-1, &rec).expect("valid epsilon")),
        ("eps1e-2", full.try_truncated(1e-2, &rec).expect("valid epsilon")),
        ("eps1e-4", full.try_truncated(1e-4, &rec).expect("valid epsilon")),
    ] {
        let extent = kernel.extent().0;
        let gen = ConvolutionGenerator::from_kernel(kernel)
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::Direct)
                    .with_recorder(rec.clone()),
            );
        h.bench(&format!("kernel_truncation/{label}/{extent}"), || {
            black_box(gen.generate(&noise, out_win))
        });
    }

    let p = SurfaceParams::isotropic(1.0, 8.0);
    let s = Gaussian::new(p);
    let noise = NoiseField::new(3);
    for &n in &[64usize, 128, 256] {
        let direct = DirectDftGenerator::with_workers(s, GridSpec::unit(n, n), 1);
        let mut seed = 0u64;
        h.bench_elems(&format!("direct_vs_conv/direct_dft/{n}"), (n * n) as u64, move || {
            seed += 1;
            black_box(direct.generate(seed))
        });
        let win = Window::sized(n, n);
        let conv = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(
                GenContext::new()
                    .with_workers(1)
                    .with_backend(ConvBackend::Direct)
                    .with_recorder(rec.clone()),
            );
        h.bench_elems(&format!("direct_vs_conv/convolution/{n}"), (n * n) as u64, || {
            black_box(conv.generate(&noise, win))
        });
        let conv_t = ConvolutionGenerator::from_kernel(
            ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-2),
        )
        .with_context(
            GenContext::new()
                .with_workers(1)
                .with_backend(ConvBackend::Direct)
                .with_recorder(rec.clone()),
        );
        h.bench_elems(&format!("direct_vs_conv/convolution_trunc/{n}"), (n * n) as u64, || {
            black_box(conv_t.generate(&noise, win))
        });
    }

    // Row-band workers parallelise the *correlate* loop only; window
    // materialisation is serial and used to be timed with it, which
    // flattened the curve regardless of worker count. Prefetch the noise
    // window once and time the correlate stage in isolation, then record
    // each worker count's speedup over w1 next to the machine's actual
    // parallelism so a flat curve on a 1-CPU runner reads as the hardware
    // limit it is, not a scheduling bug.
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 12.0));
    let noise = NoiseField::new(4);
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let (bx, by) = (256usize, 256usize);
    let (kw, kh) = kernel.extent();
    let (ox, oy) = kernel.origin();
    let win_buf = noise.window(
        -(ox + kw as i64 - 1),
        -(oy + kh as i64 - 1),
        bx + kw - 1,
        by + kh - 1,
    );
    let available =
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut scaling: Vec<(usize, f64)> = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let gen = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_context(
                GenContext::new()
                    .with_workers(workers)
                    .with_backend(ConvBackend::Direct)
                    .with_recorder(rec.clone()),
            );
        h.bench_elems(&format!("parallel_scaling/w{workers}"), (bx * by) as u64, || {
            black_box(gen.try_correlate_window(&win_buf, bx, by).expect("correlate"))
        });
        scaling.push((workers, h.last_record().expect("just recorded").median_ns));
    }
    let w1_median = scaling[0].1;
    let entries: Vec<String> = scaling
        .iter()
        .map(|&(w, m)| {
            format!(
                "{{\"workers\": {w}, \"median_ns\": {m:.1}, \"speedup_vs_w1\": {:.3}}}",
                w1_median / m
            )
        })
        .collect();
    h.attach_section(
        "parallel_scaling",
        format!(
            "{{\"available_parallelism\": {available}, \"measures\": \"correlate stage only \
             (noise window prefetched)\", \"points\": [{}]}}",
            entries.join(", ")
        ),
    );

    // The `strip` benchmark's fresh noise per strip is 512 × 511; 96 × 96
    // is a small served window's.
    let mut buf = Vec::new();
    let fills = [NoiseFill::Window, NoiseFill::Pointwise];
    for (w, ht) in [(512usize, 511usize), (96, 96)] {
        for fill in fills {
            time_noise(6, w, ht, fill, &mut buf);
        }
        let pairs = h.reps() as usize;
        let p = paired(pairs, fills.len(), |i| time_noise(6, w, ht, fills[i], &mut buf));
        for (name, times) in ["window", "pointwise"].into_iter().zip(p.times) {
            h.record(&format!("noise/{name}/{w}x{ht}"), Some((w * ht) as u64), times);
        }
        h.gate(&format!("noise/{w}x{ht}/pointwise_over_window"), &p.ratios[1], Bound::Reported);
    }

    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let mut sg = StripGenerator::new(&s, KernelSizing::default(), 64, 5)
        .with_context(
            GenContext::new()
                .with_backend(ConvBackend::Direct)
                .with_recorder(rec.clone()),
        );
    h.bench_elems("streaming/next_strip_256x64", (256 * 64) as u64, || {
        black_box(sg.next_strip(256))
    });

    let surface = sg.strip_at(0, 256);
    h.bench_elems("export/snapshot_256x64", (256 * 64) as u64, || {
        let mut buf = Vec::with_capacity(surface.len() * 8 + 32);
        rrs_io::try_write_snapshot_observed(&mut buf, &surface, &rec).expect("encode");
        black_box(buf.len())
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

    h.finish().expect("write BENCH_generation.json");
}
