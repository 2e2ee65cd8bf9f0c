//! Hermitian-symmetric complex Gaussian arrays (paper §2.3, eqns 19–28).
//!
//! The direct DFT method needs a complex array `u` on the `Nx × Ny` bin
//! lattice such that
//!
//! 1. `DFT(u)` is purely **real** — which requires the Hermitian symmetry
//!    `u[−m] = conj(u[m])` (indices mod N), and
//! 2. every bin has unit second moment, `E|u[m]|² = 1`, so that
//!    multiplying by `v = √w` gives the prescribed spectrum.
//!
//! The paper writes this construction out bin-by-bin with its `{X}`/`{Y}`
//! Gaussian sets and `1/√2` factors (eqns 20–28); the published OCR of
//! those index tables is unreadable, so we implement the equivalent
//! standard construction: walk every conjugate bin pair `{m, −m}` once;
//! at paired bins set `u[m] = (a + jb)/√2`, `u[−m] = (a − jb)/√2`; at the
//! four self-conjugate bins (`0` or Nyquist on each axis) set `u[m] = a`
//! (real, unit variance). Both properties then hold *exactly*, which the
//! tests verify.

use rrs_num::Complex64;
use rrs_rng::{BoxMuller, RandomSource};

/// Fills the `nx × ny` row-major bin lattice with a Hermitian-symmetric
/// unit-variance complex Gaussian array.
///
/// # Panics
/// Panics unless `nx`, `ny` are even and ≥ 2 (the paper's `2M` lattice).
pub fn hermitian_gaussian_array<R: RandomSource + ?Sized>(
    nx: usize,
    ny: usize,
    rng: &mut R,
) -> Vec<Complex64> {
    assert!(nx >= 2 && nx % 2 == 0, "nx must be even and >= 2, got {nx}");
    assert!(ny >= 2 && ny % 2 == 0, "ny must be even and >= 2, got {ny}");
    let mut gauss = BoxMuller::new();
    let mut u = vec![Complex64::ZERO; nx * ny];
    let mut visited = vec![false; nx * ny];
    let inv_sqrt2 = core::f64::consts::FRAC_1_SQRT_2;
    for my in 0..ny {
        for mx in 0..nx {
            let i = my * nx + mx;
            if visited[i] {
                continue;
            }
            let cx = (nx - mx) % nx;
            let cy = (ny - my) % ny;
            let j = cy * nx + cx;
            if i == j {
                // Self-conjugate bin: must be real with unit variance.
                u[i] = Complex64::from_re(gauss.sample(rng));
                visited[i] = true;
            } else {
                let (a, b) = gauss.sample_pair(rng);
                u[i] = Complex64::new(a * inv_sqrt2, b * inv_sqrt2);
                u[j] = Complex64::new(a * inv_sqrt2, -b * inv_sqrt2);
                visited[i] = true;
                visited[j] = true;
            }
        }
    }
    u
}

/// Checks the Hermitian symmetry `u[−m] = conj(u[m])` exactly; used by
/// tests and by debug assertions in the direct generator.
pub fn is_hermitian(u: &[Complex64], nx: usize, ny: usize) -> bool {
    assert_eq!(u.len(), nx * ny);
    for my in 0..ny {
        for mx in 0..nx {
            let a = u[my * nx + mx];
            let b = u[((ny - my) % ny) * nx + ((nx - mx) % nx)].conj();
            if (a - b).abs() > 1e-14 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_fft::{Direction, Fft2d};
    use rrs_rng::Xoshiro256pp;

    #[test]
    fn array_is_hermitian() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for &(nx, ny) in &[(8usize, 8usize), (16, 4), (4, 16), (2, 2)] {
            let u = hermitian_gaussian_array(nx, ny, &mut rng);
            assert!(is_hermitian(&u, nx, ny), "({nx},{ny})");
        }
    }

    #[test]
    fn self_conjugate_bins_are_real() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let (nx, ny) = (8, 6);
        let u = hermitian_gaussian_array(nx, ny, &mut rng);
        for &(mx, my) in &[(0usize, 0usize), (nx / 2, 0), (0, ny / 2), (nx / 2, ny / 2)] {
            assert_eq!(u[my * nx + mx].im, 0.0, "bin ({mx},{my})");
        }
    }

    #[test]
    fn dft_is_real() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let (nx, ny) = (16, 16);
        let mut u = hermitian_gaussian_array(nx, ny, &mut rng);
        Fft2d::with_workers(nx, ny, 1).process(&mut u, Direction::Forward);
        let max_im = u.iter().map(|z| z.im.abs()).fold(0.0, f64::max);
        let max_re = u.iter().map(|z| z.re.abs()).fold(0.0, f64::max);
        assert!(max_im < 1e-10 * max_re.max(1.0), "max imaginary part {max_im}");
    }

    #[test]
    fn bins_have_unit_second_moment() {
        // Average E|u|² over bins and realisations.
        let (nx, ny) = (16, 16);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let reps = 200;
        let mut acc = vec![0.0f64; nx * ny];
        for _ in 0..reps {
            let u = hermitian_gaussian_array(nx, ny, &mut rng);
            for (s, z) in acc.iter_mut().zip(&u) {
                *s += z.norm_sqr();
            }
        }
        for (i, &s) in acc.iter().enumerate() {
            let mean = s / reps as f64;
            // Var of |u|² estimate ~ 2/reps (complex) or 2/reps (real bins).
            assert!((mean - 1.0).abs() < 0.5, "bin {i}: E|u|² = {mean}");
        }
        let global = acc.iter().sum::<f64>() / (reps * nx * ny) as f64;
        assert!((global - 1.0).abs() < 0.01, "global E|u|² = {global}");
    }

    #[test]
    fn transformed_field_is_standard_normal() {
        // X = DFT(u)/sqrt(NxNy) must be i.i.d. N(0,1) (paper eqn 33).
        let (nx, ny) = (32, 32);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut u = hermitian_gaussian_array(nx, ny, &mut rng);
        Fft2d::with_workers(nx, ny, 1).process(&mut u, Direction::Forward);
        let scale = 1.0 / ((nx * ny) as f64).sqrt();
        let xs: Vec<f64> = u.iter().map(|z| z.re * scale).collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 4.5 / n.sqrt(), "mean={mean}");
        assert!((var - 1.0).abs() < 4.5 * (2.0 / n).sqrt(), "var={var}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = hermitian_gaussian_array(8, 8, &mut Xoshiro256pp::seed_from_u64(7));
        let b = hermitian_gaussian_array(8, 8, &mut Xoshiro256pp::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_size_rejected() {
        hermitian_gaussian_array(7, 8, &mut Xoshiro256pp::seed_from_u64(0));
    }
}
