//! FFT substrate benchmarks: radix-2 vs Bluestein, 1-D vs 2-D, serial vs
//! parallel — the costs underneath the direct DFT method — and whole
//! overlap-save tiles on the batched real-input engine
//! (`rfft_tile/{64,256,512}`: forward rows, fused column blocks with the
//! kernel multiply, inverse rows for the valid half of the tile).
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_fft`; writes
//! `BENCH_fft.json`.

use rrs_bench::Harness;
use rrs_fft::{Direction, Fft, Fft2d, RealFft2d};
use rrs_num::complex::as_f64s_mut;
use rrs_num::Complex64;
use rrs_rng::{RandomSource, Xoshiro256pp};
use std::hint::black_box;

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
    h.finish().expect("write BENCH_fft.json");
}
