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
//! `BENCH_fft.json` with a `lanes` section holding the paired ratios and
//! a `tiles` section holding every shape's.

use rrs_bench::harness::median_of_sorted;
use rrs_bench::{Harness, ReferenceTile, ScalarFft2d};
use rrs_fft::{Direction, Fft, Fft2d, RealFft2d, RealTile};
use rrs_num::Complex64;
use rrs_rng::{RandomSource, Xoshiro256pp};
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{ConvolutionKernel, KernelSizing};
use std::hint::black_box;
use std::time::Instant;

/// Side of the gated transform: Auto sizing's lattice for `cl = 20`, a
/// Bluestein length (inner length 512).
const GATE_SIDE: usize = 160;
/// Paired reps of the gate.
const GATE_PAIRS: usize = 15;
/// Transforms timed per rep, so one rep is several milliseconds.
const GATE_BLOCK: usize = 4;
/// Gate on the median paired `scalar / lanes` ratio. Over 14 runs of
/// this suite on the 2-vCPU bench host the median read 1.64–2.38
/// (per-pair ratios 1.16–2.52); 1.3 sits a fifth below the lowest median,
/// so falling back to scalar passes (1.0) fails it and host noise does
/// not.
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

/// One shape's tile gate: the sorted per-pair `reference / library`
/// ratios and the per-tile times of each.
struct TileTimes {
    ratios: Vec<f64>,
    library: Vec<f64>,
    reference: Vec<f64>,
}

/// Times the library tile against [`ReferenceTile`] on an `nx × ny` tile
/// in [`TILE_PAIRS`] paired reps, order alternating, after checking both
/// give the same bits. The kernel is `nx/2 × ny/2`, so the valid rows
/// `ny/2 − 1 .. ny` end in a partial lane block, and the tile is read
/// from a window wider than it. Returns `None` if the outputs differ.
fn tile_gate(nx: usize, ny: usize) -> Option<TileTimes> {
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

    let mut time = |run: Run| {
        let t0 = Instant::now();
        for _ in 0..tiles {
            tile_into(&mut out, &mut *run);
        }
        black_box(out[0]);
        t0.elapsed().as_nanos() as f64 / tiles as f64
    };
    let (mut ratios, mut lib, mut refr) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..TILE_PAIRS {
        let (l, r) = if rep % 2 == 0 {
            let l = time(&mut run_library);
            (l, time(&mut run_reference))
        } else {
            let r = time(&mut run_reference);
            (time(&mut run_library), r)
        };
        lib.push(l);
        refr.push(r);
        ratios.push(r / l);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(TileTimes { ratios, library: lib, reference: refr })
}

/// Times [`GATE_BLOCK`] forward transforms of a real `GATE_SIDE²` field
/// (a kernel build's input: zero imaginary parts) on the lane passes and
/// on the scalar ones in [`GATE_PAIRS`] paired reps, order alternating,
/// after checking both give the same bits. Returns the per-transform
/// times of each and the sorted per-pair `scalar / lanes` ratios.
fn lanes_gate() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = GATE_SIDE;
    let field: Vec<Complex64> =
        random_signal(n * n, 3).into_iter().map(|z| Complex64::from_re(z.re)).collect();
    let lanes = Fft2d::with_workers(n, n, 1);
    let scalar = ScalarFft2d::new(n, n);
    let mut buf = field.clone();
    let mut run = |fft: &dyn Fn(&mut [Complex64])| {
        let t0 = Instant::now();
        for _ in 0..GATE_BLOCK {
            buf.copy_from_slice(&field);
            fft(black_box(&mut buf));
        }
        black_box(buf[0]);
        t0.elapsed().as_nanos() as f64 / GATE_BLOCK as f64
    };
    let on_lanes = |b: &mut [Complex64]| lanes.process(b, Direction::Forward);
    let on_scalar = |b: &mut [Complex64]| scalar.process(b, Direction::Forward);

    let bits = |f: &dyn Fn(&mut [Complex64])| -> Vec<(u64, u64)> {
        let mut b = field.clone();
        f(&mut b);
        b.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    assert!(bits(&on_lanes) == bits(&on_scalar), "lane and scalar transforms differ in bits");

    let (mut l, mut s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..GATE_PAIRS {
        let (tl, ts) = if rep % 2 == 0 {
            let tl = run(&on_lanes);
            (tl, run(&on_scalar))
        } else {
            let ts = run(&on_scalar);
            (run(&on_lanes), ts)
        };
        l.push(tl);
        s.push(ts);
        ratios.push(ts / tl);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (l, s, ratios)
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
        for workers in [1usize, 4] {
            let fft = Fft2d::with_workers(n, n, workers);
            h.bench_elems(&format!("fft_2d/w{workers}/{n}"), (n * n) as u64, || {
                let mut buf = field.clone();
                fft.process(black_box(&mut buf), Direction::Forward);
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

    let (lanes, scalar, ratios) = lanes_gate();
    let elems = Some((GATE_SIDE * GATE_SIDE) as u64);
    h.record(&format!("fft_2d/lanes/{GATE_SIDE}"), elems, lanes);
    h.record(&format!("fft_2d/scalar/{GATE_SIDE}"), elems, scalar);
    let speedup = median_of_sorted(&ratios);
    let (lo, hi) = (ratios[0], ratios[ratios.len() - 1]);
    println!(
        "fft_2d/{GATE_SIDE}: scalar/lanes median of {GATE_PAIRS} paired ratios = {speedup:.2}x \
         [{lo:.2}, {hi:.2}]  (gate: >= {MIN_LANES_SPEEDUP}x)"
    );
    h.attach_section(
        "lanes",
        format!(
            "{{\"side\": {GATE_SIDE}, \"pairs\": {GATE_PAIRS}, \"median_scalar_over_lanes\": \
             {speedup:.3}, \"min_ratio\": {lo:.3}, \"max_ratio\": {hi:.3}, \
             \"gate_min_speedup\": {MIN_LANES_SPEEDUP}}}"
        ),
    );
    let mut failed = speedup < MIN_LANES_SPEEDUP;
    if failed {
        eprintln!(
            "FAIL: the lane 2-D FFT is only {speedup:.2}x the scalar one on {GATE_SIDE}² \
             (gate: >= {MIN_LANES_SPEEDUP}x)"
        );
    }

    let mut entries = Vec::new();
    for (nx, ny) in TILE_SHAPES {
        let Some(t) = tile_gate(nx, ny) else {
            eprintln!("FAIL: the {nx}x{ny} library tile differs from the reference tile in bits");
            failed = true;
            continue;
        };
        let elems = Some((nx * ny) as u64);
        h.record(&format!("tile/{nx}x{ny}/library"), elems, t.library);
        h.record(&format!("tile/{nx}x{ny}/reference"), elems, t.reference);
        let median = median_of_sorted(&t.ratios);
        let (lo, hi) = (t.ratios[0], t.ratios[t.ratios.len() - 1]);
        println!(
            "tile/{nx}x{ny}: reference/library median of {TILE_PAIRS} paired ratios = \
             {median:.3}x [{lo:.2}, {hi:.2}]"
        );
        entries.push(format!(
            "{{\"shape\": [{nx}, {ny}], \"median_reference_over_library\": {median:.3}, \
             \"min_ratio\": {lo:.3}, \"max_ratio\": {hi:.3}}}"
        ));
        if (nx, ny) == (512, 512) && median < MIN_TILE_SPEEDUP {
            eprintln!(
                "FAIL: the 512² library tile is only {median:.2}x the reference tile \
                 (gate: >= {MIN_TILE_SPEEDUP}x)"
            );
            failed = true;
        }
    }
    h.attach_section(
        "tiles",
        format!(
            "{{\"pairs\": {TILE_PAIRS}, \"gate_min_speedup_512\": {MIN_TILE_SPEEDUP}, \
             \"shapes\": [{}]}}",
            entries.join(", ")
        ),
    );
    h.finish().expect("write BENCH_fft.json");
    if failed {
        std::process::exit(1);
    }
    println!("fft lanes and tile gates passed");
}
