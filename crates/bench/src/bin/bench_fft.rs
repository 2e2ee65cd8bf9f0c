//! FFT substrate benchmarks: radix-2 vs Bluestein, 1-D vs 2-D, serial vs
//! parallel — the costs underneath the direct DFT method — whole
//! overlap-save tiles on the batched real-input engine
//! (`rfft_tile/{64,256,512}`: a tile read from a noise window, forward
//! rows, column blocks with the kernel multiply, inverse rows for the
//! valid half of the tile), and kernel builds
//! (`kernel_build/{80,120,160,200}`: amplitudes, the 2-D DFT on the
//! Auto-sized, Bluestein-length lattice, re-centring and the figures' 1%
//! truncation search).
//!
//! It also times a 160² forward transform two ways, in paired reps
//! ([`lanes_gate`]): `fft_2d/lanes/160` is [`Fft2d`], whose passes run
//! [`rrs_fft::LANES`] rows or columns at a time; `fft_2d/scalar/160` is
//! [`ScalarFft2d`], the scalar row/column transform they replaced.
//!
//! And it times whole overlap-save tiles at every shape the workloads run
//! two ways, in paired reps ([`tile_gate`]): `tile/{nx}x{ny}/library` is
//! [`RealFft2d::convolve`] on column-block spectra, reading the tile
//! straight from the window; `tile/{nx}x{ny}/reference` is
//! [`ReferenceTile`], the tile it replaced (a copy into packed rows,
//! row-at-a-time gathers, a packed row-major kernel spectrum, every lane
//! transformed).
//!
//! **Fails** (exit code 1) if the lane and scalar transforms disagree in
//! any bit, if the median paired `scalar / lanes` ratio is below
//! [`MIN_LANES_SPEEDUP`], if a library tile differs from its reference in
//! any bit, or if the 512² tile's median paired `reference / library`
//! ratio is below [`MIN_TILE_SPEEDUP`].
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_fft`; writes
//! `BENCH_fft.json`, with the lane and every tile shape's paired ratios
//! under `paired`.

use rrs_bench::harness::{paired, per_call_ns, Bound, Paired};
use rrs_bench::{Harness, ReferenceTile, ScalarFft2d};
use rrs_fft::{Direction, Fft, Fft2d, RealFft2d, RealTile};
use rrs_num::Complex64;
use rrs_rng::{RandomSource, Xoshiro256pp};
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{ConvolutionKernel, KernelSizing};
use std::hint::black_box;

/// Side of the gated transform: Auto sizing's lattice for `cl = 20`, a
/// Bluestein length (inner length 512).
const GATE_SIDE: usize = 160;
/// Paired reps of the gate.
const GATE_PAIRS: usize = 15;
/// Transforms timed per rep, so one rep is several milliseconds.
const GATE_BLOCK: usize = 4;
/// Gate on the median paired `scalar / lanes` ratio. Over 12 runs of
/// this suite on the 2-vCPU bench host the median read 2.15–3.16
/// (per-pair ratios 1.75–4.09); 1.3 sits two fifths below the lowest
/// median, so falling back to scalar passes (1.0) fails it and host noise
/// does not.
const MIN_LANES_SPEEDUP: f64 = 1.3;
/// The overlap-save tile shapes the workloads run: `serve`'s 32²–256²,
/// `figures`' box tiles (64²–256², 128×256 and 256×128) and `strip`'s
/// 512².
const TILE_SHAPES: [(usize, usize); 7] =
    [(32, 32), (64, 64), (128, 128), (256, 128), (128, 256), (256, 256), (512, 512)];
/// Paired reps per tile shape.
const TILE_PAIRS: usize = 31;
/// Tile samples timed per rep: each rep runs `TILE_REP_SAMPLES / (nx·ny)`
/// tiles (at least one), a few milliseconds at every shape.
const TILE_REP_SAMPLES: usize = 1 << 19;
/// Gate on the 512² tile's median paired `reference / library` ratio.
/// Over 12 runs of this suite on the 2-vCPU bench host the median read
/// 1.266–1.543 (1.336, 1.382, 1.314, 1.337, 1.516, 1.506, 1.438, 1.314,
/// 1.543, 1.266, 1.302, 1.276; per-pair ratios 1.0–1.9). 1.25 sits just
/// under the lowest: falling back to the reference tile (1.0) fails it.
/// The ratio falls when co-tenants load the memory system, since the
/// gain is bytes not moved, so a heavily loaded host can read below it.
const MIN_TILE_SPEEDUP: f64 = 1.25;

fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n).map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect()
}

fn random_real(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n).map(|_| rng.next_f64() - 0.5).collect()
}

/// Times the library tile (variant 0) against [`ReferenceTile`]
/// (variant 1) on an `nx × ny` tile in [`TILE_PAIRS`] [`paired`] reps,
/// after checking both give the same bits; a block is
/// `TILE_REP_SAMPLES / (nx·ny)` tiles, timed per tile. The kernel is
/// `nx/2 × ny/2`, so the valid rows `ny/2 − 1 .. ny` end in a partial
/// lane block, and the tile is read from a window wider than it. Returns
/// `None` if the outputs differ.
fn tile_gate(nx: usize, ny: usize) -> Option<Paired> {
    let (kw, kh) = (nx / 2, ny / 2);
    let weights = random_real(kw * kh, 21);
    let pitch = nx + nx / 2;
    let win = random_real(pitch * ny, 22);
    let rows = kh - 1..ny;
    let tiles = (TILE_REP_SAMPLES / (nx * ny)).max(1);
    let mut out = vec![0.0; rows.len() * nx];
    // One tile through `run`, its valid rows stored into `out`.
    type Run<'a> = &'a mut dyn FnMut(&mut dyn FnMut(usize, &[f64]));
    let tile_into = |out: &mut [f64], run: Run| {
        run(&mut |y, row| out[(y - (kh - 1)) * nx..][..nx].copy_from_slice(row))
    };

    let library = RealFft2d::new(nx, ny);
    let klib = library.forward(RealTile { data: &weights, pitch: kw, width: kw, height: kh });
    let mut work = library.workspace();
    let input = RealTile { data: &win, pitch, width: nx, height: ny };
    let mut run_library = |emit: &mut dyn FnMut(usize, &[f64])| {
        library.convolve(input, &klib, rows.clone(), &mut work, emit)
    };

    let reference = ReferenceTile::new(nx, ny);
    let kref = reference.kernel_spectrum(&weights, kw, kh);
    let mut arena = reference.arena();
    let mut run_reference = |emit: &mut dyn FnMut(usize, &[f64])| {
        reference.convolve(&win, pitch, nx, ny, &kref, rows.clone(), &mut arena, emit)
    };

    tile_into(&mut out, &mut run_reference);
    let want: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
    out.fill(f64::NAN);
    tile_into(&mut out, &mut run_library);
    if out.iter().map(|v| v.to_bits()).ne(want.iter().copied()) {
        return None;
    }

    Some(paired(TILE_PAIRS, 2, |i| {
        let run: Run = if i == 0 { &mut run_library } else { &mut run_reference };
        let t = per_call_ns(tiles, || tile_into(&mut out, &mut *run));
        black_box(out[0]);
        t
    }))
}

/// Times [`GATE_BLOCK`] forward transforms of a real `GATE_SIDE²` field
/// (a kernel build's input: zero imaginary parts) on the lane passes
/// (variant 0) and on the scalar ones (variant 1) in [`GATE_PAIRS`]
/// [`paired`] reps, per transform, after checking both give the same
/// bits.
fn lanes_gate() -> Paired {
    let n = GATE_SIDE;
    let field: Vec<Complex64> =
        random_signal(n * n, 3).into_iter().map(|z| Complex64::from_re(z.re)).collect();
    let lanes = Fft2d::new(n, n);
    let scalar = ScalarFft2d::new(n, n);
    let on_lanes = |b: &mut [Complex64]| lanes.process(b, Direction::Forward, 1);
    let on_scalar = |b: &mut [Complex64]| scalar.process(b, Direction::Forward);

    let bits = |f: &dyn Fn(&mut [Complex64])| -> Vec<(u64, u64)> {
        let mut b = field.clone();
        f(&mut b);
        b.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    assert!(bits(&on_lanes) == bits(&on_scalar), "lane and scalar transforms differ in bits");

    let mut buf = field.clone();
    paired(GATE_PAIRS, 2, |i| {
        let fft: &dyn Fn(&mut [Complex64]) = if i == 0 { &on_lanes } else { &on_scalar };
        let t = per_call_ns(GATE_BLOCK, || {
            buf.copy_from_slice(&field);
            fft(black_box(&mut buf));
        });
        black_box(buf[0]);
        t
    })
}

fn main() {
    let mut h = Harness::new("fft");
    for &n in &[256usize, 1024, 4096, 16384] {
        let fft = Fft::new(n);
        let signal = random_signal(n, n as u64);
        h.bench_elems(&format!("fft_1d/radix2/{n}"), n as u64, || {
            let mut buf = signal.clone();
            fft.process(black_box(&mut buf), Direction::Forward);
            buf
        });
        // The adjacent non-power-of-two length exercises Bluestein.
        let m = n + 1;
        let bfft = Fft::new(m);
        let bsignal = random_signal(m, m as u64);
        h.bench_elems(&format!("fft_1d/bluestein/{m}"), m as u64, || {
            let mut buf = bsignal.clone();
            bfft.process(black_box(&mut buf), Direction::Forward);
            buf
        });
    }
    for &n in &[128usize, 256, 512] {
        let field = random_signal(n * n, 7);
        let fft = Fft2d::new(n, n);
        for workers in [1usize, 4] {
            h.bench_elems(&format!("fft_2d/w{workers}/{n}"), (n * n) as u64, || {
                let mut buf = field.clone();
                fft.process(black_box(&mut buf), Direction::Forward, workers);
                buf
            });
        }
    }
    for &n in &[64usize, 256, 512] {
        let rfft = RealFft2d::new(n, n);
        let tile = random_real(n * n, 11);
        let kernel = random_real(n * n, 12);
        let kspec = rfft.forward(RealTile { data: &kernel, pitch: n, width: n, height: n });
        let mut work = rfft.workspace();
        let input = RealTile { data: &tile, pitch: n, width: n, height: n };
        let mut sum = 0.0;
        // A kernel of side n/2 + 1 leaves the upper n/2 rows valid.
        h.bench_elems(&format!("rfft_tile/{n}"), (n * n) as u64, || {
            let mut emit = |_: usize, row: &[f64]| sum += row[0];
            rfft.convolve(black_box(input), &kspec, n / 2..n, &mut work, &mut emit);
            sum
        });
    }
    for &n in &[80usize, 120, 160, 200] {
        // Auto sizing gives 8·cl: these are the lattices of cl 10–25.
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, n as f64 / 8.0));
        h.bench_elems(&format!("kernel_build/{n}"), (n * n) as u64, || {
            ConvolutionKernel::build(black_box(&s), KernelSizing::default()).truncated(0.01)
        });
    }

    let lanes = lanes_gate();
    let elems = Some((GATE_SIDE * GATE_SIDE) as u64);
    h.record(&format!("fft_2d/lanes/{GATE_SIDE}"), elems, lanes.times[0].clone());
    h.record(&format!("fft_2d/scalar/{GATE_SIDE}"), elems, lanes.times[1].clone());
    let label = format!("fft_2d/{GATE_SIDE}/scalar_over_lanes");
    let mut failed = !h.gate(&label, &lanes.ratios[1], Bound::AtLeast(MIN_LANES_SPEEDUP));

    for (nx, ny) in TILE_SHAPES {
        let Some(tile) = tile_gate(nx, ny) else {
            eprintln!("FAIL: the {nx}x{ny} library tile differs from the reference tile in bits");
            failed = true;
            continue;
        };
        let elems = Some((nx * ny) as u64);
        h.record(&format!("tile/{nx}x{ny}/library"), elems, tile.times[0].clone());
        h.record(&format!("tile/{nx}x{ny}/reference"), elems, tile.times[1].clone());
        let gated = (nx, ny) == (512, 512);
        let bound = if gated { Bound::AtLeast(MIN_TILE_SPEEDUP) } else { Bound::Reported };
        let label = format!("tile/{nx}x{ny}/reference_over_library");
        failed |= !h.gate(&label, &tile.ratios[1], bound);
    }
    h.finish().expect("write BENCH_fft.json");
    if failed {
        std::process::exit(1);
    }
    println!("fft lanes and tile gates passed");
}
