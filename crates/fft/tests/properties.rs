//! Property-based tests for the FFT substrate (rrs-check harness).

use rrs_check::any;
use rrs_fft::spectral::{fftshift, fold_index, ifftshift, swap_halves_index};
use rrs_fft::{dft::dft_reference, Direction, Fft, Fft2d};
use rrs_num::Complex64;
use rrs_rng::{RandomSource, Xoshiro256pp};

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n).map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5)).collect()
}

rrs_check::props! {
    #![cases = 64]

    fn forward_matches_naive_dft(n in 1usize..96, seed in any::<u64>()) {
        let x = signal(n, seed);
        let mut fast = x.clone();
        Fft::new(n).process(&mut fast, Direction::Forward);
        let slow = dft_reference(&x, Direction::Forward);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-8 * (n as f64).max(1.0), "n={n}");
        }
    }

    fn linearity(n in 2usize..64, seed in any::<u64>(), alpha in -3.0f64..3.0) {
        let x = signal(n, seed);
        let y = signal(n, seed ^ 0xABCD);
        let fft = Fft::new(n);
        let mut fx = x.clone();
        let mut fy = y.clone();
        fft.process(&mut fx, Direction::Forward);
        fft.process(&mut fy, Direction::Forward);
        let mut mix: Vec<Complex64> =
            x.iter().zip(&y).map(|(a, b)| a.scale(alpha) + *b).collect();
        fft.process(&mut mix, Direction::Forward);
        for ((m, a), b) in mix.iter().zip(&fx).zip(&fy) {
            let expect = a.scale(alpha) + *b;
            assert!((*m - expect).abs() < 1e-8);
        }
    }

    fn real_input_spectrum_is_hermitian(n in 2usize..80, seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut buf: Vec<Complex64> =
            (0..n).map(|_| Complex64::from_re(rng.next_f64() - 0.5)).collect();
        Fft::new(n).process(&mut buf, Direction::Forward);
        for k in 1..n {
            assert!((buf[k] - buf[n - k].conj()).abs() < 1e-9, "k={k} n={n}");
        }
    }

    fn two_dimensional_round_trip(nx in 1usize..20, ny in 1usize..20, seed in any::<u64>()) {
        let x = signal(nx * ny, seed);
        let fft = Fft2d::new(nx, ny);
        let mut buf = x.clone();
        fft.process(&mut buf, Direction::Forward, 2);
        fft.process(&mut buf, Direction::Inverse, 2);
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    fn shifts_are_inverse_permutations(n in 1usize..128) {
        let orig: Vec<usize> = (0..n).collect();
        let mut buf = orig.clone();
        fftshift(&mut buf);
        ifftshift(&mut buf);
        assert_eq!(buf, orig);
    }

    fn fold_index_is_symmetric(half in 1usize..64, m in 0usize..128) {
        rrs_check::assume!(m < 2 * half);
        let folded = fold_index(m, half);
        assert!(folded <= half);
        if m > 0 && m < 2 * half {
            assert_eq!(folded, fold_index((2 * half - m) % (2 * half), half));
        }
    }

    fn swap_halves_is_involutive(half in 1usize..64, k in 0usize..128) {
        rrs_check::assume!(k < 2 * half);
        assert_eq!(swap_halves_index(swap_halves_index(k, half), half), k);
    }
}
