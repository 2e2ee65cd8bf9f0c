//! Bluestein's chirp-z algorithm — FFTs of arbitrary length.
//!
//! The identity `nk = (n² + k² − (k−n)²) / 2` rewrites the DFT of any
//! length `N` as a linear convolution of two chirp-modulated sequences,
//! which is evaluated with a zero-padded power-of-two FFT of length
//! `M ≥ 2N − 1`. This keeps the paper's generator free to use *any* grid
//! dimension (surface lengths are physical, not algorithmic, choices).

use crate::plan::{lane_planes, FftPlan, Lane, LANES};
use crate::Direction;
use rrs_num::Complex64;

/// A precomputed Bluestein transform of length `n`.
pub struct Bluestein {
    n: usize,
    /// Chirp `w[k] = e^{-jπ k² / n}` (forward sense), `k < n`.
    chirp: Vec<Complex64>,
    /// Forward FFT of the zero-padded conjugate-chirp filter, length `m`.
    filter_spectrum: Vec<Complex64>,
    inner: FftPlan,
}

impl Bluestein {
    /// Builds the transform tables for length `n ≥ 1`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Bluestein length must be positive");
        let m = (2 * n - 1).next_power_of_two();
        // k² mod 2n keeps the chirp phase argument bounded so the cis()
        // stays accurate for very long transforms.
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = (k as u128 * k as u128 % (2 * n as u128)) as f64;
                Complex64::cis(-core::f64::consts::PI * k2 / n as f64)
            })
            .collect();
        let inner = FftPlan::new(m);
        // Filter b[k] = conj(chirp[k]) at offsets 0 and m-k (wrap-around),
        // zero elsewhere; precompute its forward FFT once.
        let mut filter = vec![Complex64::ZERO; m];
        filter[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            filter[k] = c;
            filter[m - k] = c;
        }
        inner.process(&mut filter, Direction::Forward);
        Self { n, chirp, filter_spectrum: filter, inner }
    }

    /// The transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false` (length ≥ 1 by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place transform of `buf`.
    pub fn process(&self, buf: &mut [Complex64], dir: Direction) {
        assert_eq!(buf.len(), self.n, "buffer length mismatch");
        let m = self.inner.len();
        let mut a = vec![Complex64::ZERO; m];
        // The inverse transform is the conjugate of the forward transform
        // of the conjugated input, scaled by 1/n.
        let conjugate = dir == Direction::Inverse;
        for (k, (&x, &c)) in buf.iter().zip(&self.chirp).enumerate() {
            let x = if conjugate { x.conj() } else { x };
            a[k] = x * c;
        }
        self.inner.process(&mut a, Direction::Forward);
        for (z, &f) in a.iter_mut().zip(&self.filter_spectrum) {
            *z *= f;
        }
        self.inner.process(&mut a, Direction::Inverse);
        let norm = if conjugate { 1.0 / self.n as f64 } else { 1.0 };
        for (k, out) in buf.iter_mut().enumerate() {
            let v = a[k] * self.chirp[k];
            *out = if conjugate { v.conj().scale(norm) } else { v };
        }
    }

    /// [`Bluestein::process`] on [`LANES`] sequences at once, in place on
    /// the split-complex planes `re` and `im` (`n` lanes each, natural
    /// order in and out).
    ///
    /// The chirp multiply loads the sequences bit-reversed into two inner
    /// planes taken from `scratch` (grown at most once), zero-padded to the
    /// inner length; the inner forward transform, the filter multiply and
    /// the inner inverse run there on lanes; and the chirp multiply stores
    /// the results back. Every element gets exactly the operations of
    /// `process`, in its order — the full complex products, the inner
    /// inverse's `1/m`, and on the inverse the conjugations and the `1/n` —
    /// so each lane is bit-identical to it.
    #[inline(always)]
    pub(crate) fn process_lanes(
        &self,
        re: &mut [Lane],
        im: &mut [Lane],
        dir: Direction,
        scratch: &mut Vec<Lane>,
    ) {
        let (n, m) = (self.n, self.inner.len());
        assert!(re.len() == n && im.len() == n, "lane planes must hold {n} elements");
        let (ar, ai) = lane_planes(scratch, m);
        let conjugate = dir == Direction::Inverse;
        for (k, &c) in self.chirp.iter().enumerate() {
            let s = self.inner.bit_reversed(k);
            for l in 0..LANES {
                let x = Complex64::new(re[k][l], im[k][l]);
                let x = if conjugate { x.conj() } else { x };
                let v = x * c;
                (ar[s][l], ai[s][l]) = (v.re, v.im);
            }
        }
        for k in n..m {
            let s = self.inner.bit_reversed(k);
            (ar[s], ai[s]) = ([0.0; LANES], [0.0; LANES]);
        }
        self.inner.butterflies_lanes(ar, ai, Direction::Forward);
        // The products trade places pairwise, {i, bitrev(i)}, into the
        // bit-reversed order the inner inverse reads.
        for i in 0..m {
            let r = self.inner.bit_reversed(i);
            if r < i {
                continue; // moved with its partner
            }
            let (fi, fr) = (self.filter_spectrum[i], self.filter_spectrum[r]);
            for l in 0..LANES {
                let zi = Complex64::new(ar[i][l], ai[i][l]) * fi;
                let zr = Complex64::new(ar[r][l], ai[r][l]) * fr;
                (ar[r][l], ai[r][l]) = (zi.re, zi.im);
                (ar[i][l], ai[i][l]) = (zr.re, zr.im);
            }
        }
        self.inner.butterflies_lanes(ar, ai, Direction::Inverse);
        let inner_norm = 1.0 / m as f64;
        let norm = if conjugate { 1.0 / n as f64 } else { 1.0 };
        for (k, &c) in self.chirp.iter().enumerate() {
            for l in 0..LANES {
                let v = Complex64::new(ar[k][l], ai[k][l]).scale(inner_norm) * c;
                let v = if conjugate { v.conj().scale(norm) } else { v };
                (re[k][l], im[k][l]) = (v.re, v.im);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_reference;

    #[test]
    fn matches_reference_for_awkward_lengths() {
        for n in [1usize, 2, 3, 5, 6, 7, 11, 13, 21, 33, 47, 60, 101, 257] {
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((0.7 * i as f64).cos(), (1.3 * i as f64).sin()))
                .collect();
            let mut fast = x.clone();
            Bluestein::new(n).process(&mut fast, Direction::Forward);
            let slow = dft_reference(&x, Direction::Forward);
            for (k, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((*a - *b).abs() < 1e-8 * (n as f64).max(1.0), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        for n in [3usize, 10, 37, 99] {
            let x: Vec<Complex64> =
                (0..n).map(|i| Complex64::new(i as f64 * 0.1, -(i as f64) * 0.2)).collect();
            let b = Bluestein::new(n);
            let mut buf = x.clone();
            b.process(&mut buf, Direction::Forward);
            b.process(&mut buf, Direction::Inverse);
            for (a, c) in buf.iter().zip(&x) {
                assert!((*a - *c).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn works_on_power_of_two_lengths_too() {
        // Not the dispatcher's choice, but must still be correct.
        let n = 16;
        let x: Vec<Complex64> = (0..n).map(|i| Complex64::from_re(i as f64)).collect();
        let mut fast = x.clone();
        Bluestein::new(n).process(&mut fast, Direction::Forward);
        let slow = dft_reference(&x, Direction::Forward);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn large_prime_length_is_stable() {
        let n = 1009; // prime: worst case for non-Bluestein approaches
        let x: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64).sin(), 0.0)).collect();
        let b = Bluestein::new(n);
        let mut buf = x.clone();
        b.process(&mut buf, Direction::Forward);
        b.process(&mut buf, Direction::Inverse);
        let err = buf.iter().zip(&x).map(|(a, c)| (*a - *c).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "round-trip err {err}");
    }
}
