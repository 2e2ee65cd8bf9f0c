//! FFT substrate benchmarks: radix-2 vs Bluestein, 1-D vs 2-D, serial vs
//! parallel — the costs underneath the direct DFT method — whole
//! overlap-save tiles on the batched real-input engine
//! (`rfft_tile/{64,256,512}`: forward rows, fused column blocks with the
//! kernel multiply, inverse rows for the valid half of the tile), and
//! kernel builds (`kernel_build/{80,120,160,200}`: amplitudes, the 2-D DFT
//! on the Auto-sized, Bluestein-length lattice, re-centring and the
//! figures' 1% truncation search).
//!
//! It also times a 160² forward transform two ways, in paired reps
//! ([`lanes_gate`]): `fft_2d/lanes/160` is [`Fft2d`], whose passes run
//! [`rrs_fft::LANES`] rows or columns at a time; `fft_2d/scalar/160` is
//! [`ScalarFft2d`], the scalar row/column transform they replaced.
//!
//! **Fails** (exit code 1) if the two disagree in any bit, or if the
//! median paired `scalar / lanes` ratio is below [`MIN_LANES_SPEEDUP`].
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_fft`; writes
//! `BENCH_fft.json` with a `lanes` section holding the paired ratios.

use rrs_bench::harness::median_of_sorted;
use rrs_bench::{Harness, ScalarFft2d};
use rrs_fft::{Direction, Fft, Fft2d, RealFft2d};
use rrs_num::complex::as_f64s_mut;
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

fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n).map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect()
}

/// A random real `n × n` tile laid into `rfft`'s packed rows, the layout
/// its in-place transforms read.
fn random_tile(rfft: &RealFft2d, n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut spec = vec![Complex64::ZERO; rfft.packed_len()];
    for row in spec.chunks_exact_mut(rfft.packed_width()) {
        for x in &mut as_f64s_mut(row)[..n] {
            *x = rng.next_f64() - 0.5;
        }
    }
    spec
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
        let tile = random_tile(&rfft, n, 11);
        let mut kspec = random_tile(&rfft, n, 12);
        let mut scratch = Vec::new();
        rfft.forward_in_place(&mut kspec, &mut scratch);
        let mut spec = tile.clone();
        // A kernel of side n/2 + 1 leaves the upper n/2 rows valid.
        h.bench_elems(&format!("rfft_tile/{n}"), (n * n) as u64, || {
            spec.copy_from_slice(&tile);
            rfft.convolve_in_place(black_box(&mut spec), &kspec, n / 2..n, &mut scratch);
            spec[n / 2 * rfft.packed_width()]
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
    h.finish().expect("write BENCH_fft.json");
    if speedup < MIN_LANES_SPEEDUP {
        eprintln!(
            "FAIL: the lane 2-D FFT is only {speedup:.2}x the scalar one on {GATE_SIDE}² \
             (gate: >= {MIN_LANES_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    println!("fft lanes gate passed");
}
