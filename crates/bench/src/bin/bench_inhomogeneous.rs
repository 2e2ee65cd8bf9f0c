//! Inhomogeneous-generation benchmarks, each generator timed on two
//! backends: `direct` (the per-sample loop, [`ConvBackend::Direct`]) and
//! `auto` (the default [`ConvBackend::Auto`]: the kernel-major blend on
//! the real-input FFT engine).
//!
//! * overhead of the plate- and point-oriented weight maps against the
//!   homogeneous baseline (on `direct`, pure regions cost one kernel dot
//!   product, so the gap is the membership evaluation itself);
//! * the `blend_fields` vs `blend_kernels` ablation from DESIGN.md §7:
//!   the generator blends per-kernel *fields* (linearity) — per sample on
//!   `direct`, per kernel box on `auto`; the literal eqn (46) alternative
//!   materialises a blended kernel per sample.
//!
//! A `speedup` section records each generator's `direct`/`auto` median
//! ratio. Run with `cargo run --release -p rrs-bench --bin
//! bench_inhomogeneous`; writes `BENCH_inhomogeneous.json`.

use rrs_bench::Harness;
use rrs_grid::{Grid2, Window};
use rrs_inhomo::plate::quadrant_layout;
use rrs_inhomo::{InhomogeneousGenerator, PointLayout, RepresentativePoint, WeightMap};
use rrs_spectrum::{SpectrumModel, SurfaceParams};
use rrs_surface::{
    ConvBackend, ConvolutionGenerator, ConvolutionKernel, KernelSizing, NoiseField,
};
use std::hint::black_box;

const N: usize = 128;

fn sm(h: f64, cl: f64) -> SpectrumModel {
    SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
}

fn sizing() -> KernelSizing {
    KernelSizing::Auto { factor: 8.0, min: 16, max: 256 }
}

/// Literal eqn (46): materialise the blended kernel at every sample, then
/// dot it with the noise — the naive alternative the generator avoids.
fn blend_kernels_naive(
    layout: &dyn WeightMap,
    kernels: &[ConvolutionKernel],
    noise: &NoiseField,
    n: usize,
) -> Grid2<f64> {
    let (kw, kh) = kernels[0].extent();
    let (ox, oy) = kernels[0].origin();
    let reach_l = ox + kw as i64 - 1;
    let reach_r = -ox;
    let win = noise.window(
        -reach_l,
        -reach_l,
        n + (reach_l + reach_r) as usize,
        n + (reach_l + reach_r) as usize,
    );
    let ww = n + (reach_l + reach_r) as usize;
    let mut weights = Vec::new();
    let mut blended = vec![0.0f64; kw * kh];
    Grid2::from_fn(n, n, |ix, iy| {
        layout.weights_at(ix as f64, iy as f64, &mut weights);
        blended.iter_mut().for_each(|v| *v = 0.0);
        for &(ki, g) in &weights {
            for (dst, &src) in blended.iter_mut().zip(kernels[ki].weights().as_slice()) {
                *dst += g * src;
            }
        }
        // Dot the blended kernel with the noise window.
        let mut acc = 0.0;
        for b in 0..kh {
            let jy = oy + b as i64;
            let wy = (iy as i64 - jy + reach_l) as usize;
            for a in 0..kw {
                let jx = ox + a as i64;
                let wx = (ix as i64 - jx + reach_l) as usize;
                acc += blended[b * kw + a] * win[wy * ww + wx];
            }
        }
        acc
    })
}

/// The two backends every generator is timed on, with their row suffix.
const BACKENDS: [(&str, ConvBackend); 2] =
    [("direct", ConvBackend::Direct), ("auto", ConvBackend::Auto)];

/// Builds the generator on each backend, times `generate` as
/// `<name>/direct` and `<name>/auto`, and returns the `direct`/`auto`
/// median ratio.
fn bench_both<G>(
    h: &mut Harness,
    name: &str,
    build: impl Fn(ConvBackend) -> G,
    generate: impl Fn(&G) -> Grid2<f64>,
) -> f64 {
    let mut medians = [0.0; 2];
    for (slot, (suffix, backend)) in medians.iter_mut().zip(BACKENDS) {
        let gen = build(backend);
        h.bench(&format!("{name}/{suffix}"), || black_box(generate(&gen)));
        *slot = h.last_record().expect("just recorded").median_ns;
    }
    medians[0] / medians[1]
}

fn main() {
    let mut h = Harness::new("inhomogeneous");
    let mut speedups = Vec::new();
    let win = Window::sized(N, N);

    let noise = NoiseField::new(1);
    let name = "inhomo_overhead/homogeneous";
    let ratio = bench_both(
        &mut h,
        name,
        |b| ConvolutionGenerator::new(&sm(1.0, 8.0), sizing()).with_workers(1).with_backend(b),
        |g| g.generate(&noise, win),
    );
    speedups.push((name.to_string(), ratio));

    let plates = quadrant_layout(
        N as f64,
        N as f64,
        [sm(1.0, 8.0), sm(1.5, 8.0), sm(2.0, 8.0), sm(1.5, 8.0)],
        8.0,
    );
    let name = "inhomo_overhead/plate_quadrants";
    let ratio = bench_both(
        &mut h,
        name,
        |b| InhomogeneousGenerator::new(plates.clone(), sizing()).with_workers(1).with_backend(b),
        |g| g.generate(&noise, win),
    );
    speedups.push((name.to_string(), ratio));

    let points = PointLayout::new(
        (0..8)
            .map(|i| {
                let th = core::f64::consts::TAU * i as f64 / 8.0;
                RepresentativePoint {
                    x: N as f64 / 2.0 + 40.0 * th.cos(),
                    y: N as f64 / 2.0 + 40.0 * th.sin(),
                    spectrum: sm(1.0 + 0.1 * i as f64, 8.0),
                }
            })
            .collect(),
        10.0,
    );
    let name = "inhomo_overhead/point_ring8";
    let ratio = bench_both(
        &mut h,
        name,
        |b| InhomogeneousGenerator::new(points.clone(), sizing()).with_workers(1).with_backend(b),
        |g| g.generate(&noise, win),
    );
    speedups.push((name.to_string(), ratio));

    let noise = NoiseField::new(2);
    // Same-extent kernels so the naive blend is well-defined.
    let spec = rrs_spectrum::GridSpec::unit(64, 64);
    let layout = quadrant_layout(
        N as f64,
        N as f64,
        [sm(1.0, 6.0), sm(1.5, 6.0), sm(2.0, 6.0), sm(1.5, 6.0)],
        12.0,
    );
    let kernels: Vec<ConvolutionKernel> =
        layout.spectra().iter().map(|s| ConvolutionKernel::build_on(s, spec)).collect();

    let name = format!("blend_ablation/blend_fields/{N}");
    let ratio = bench_both(
        &mut h,
        &name,
        |b| {
            InhomogeneousGenerator::from_kernels(layout.clone(), kernels.clone())
                .with_workers(1)
                .with_backend(b)
        },
        |g| g.generate(&noise, win),
    );
    speedups.push((name, ratio));
    h.bench(&format!("blend_ablation/blend_kernels_naive/{N}"), || {
        black_box(blend_kernels_naive(&layout, &kernels, &noise, N))
    });

    for (name, ratio) in &speedups {
        println!("{name}: direct/auto median ratio {ratio:.2}x");
    }
    let entries: Vec<String> =
        speedups.iter().map(|(name, r)| format!("\"{name}\": {r:.3}")).collect();
    h.attach_section("speedup", format!("{{{}}}", entries.join(", ")));
    h.finish().expect("write BENCH_inhomogeneous.json");
}
