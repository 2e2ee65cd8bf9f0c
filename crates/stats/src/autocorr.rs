//! Empirical autocorrelation estimation.
//!
//! Two estimators with different boundary semantics:
//!
//! * [`autocorrelation_lags`] — direct `O(lags · N)` evaluation at chosen
//!   axis-aligned lags with **open** boundaries (only overlapping samples
//!   contribute), appropriate for windows cut from a larger surface;
//! * [`autocorrelation_fft`] — the full **periodic** autocorrelation in
//!   `O(N log N)` via `IDFT(|DFT(f)|²)/N`, appropriate for direct-DFT
//!   surfaces, which are periodic by construction.
//!
//! Both subtract the sample mean first and return *covariances* (`ρ̂(0)` is
//! the height variance `ĥ²`, matching the paper's `ρ(0) = h²` convention).

use rrs_fft::{Direction, FftPlanCache};
use rrs_grid::Grid2;
use rrs_num::Complex64;

/// Direct autocorrelation estimate at the given integer lags, open
/// boundaries. Returns one covariance per requested `(dx, dy)`.
pub fn autocorrelation_lags(f: &Grid2<f64>, lags: &[(i64, i64)]) -> Vec<f64> {
    autocorrelation_lags_with_mean(f, lags, f.mean())
}

/// Like [`autocorrelation_lags`] but with a caller-supplied process mean.
///
/// Passing the *known* mean (0 for every generator in this workspace)
/// removes the small-window downward bias of subtracting the sample mean,
/// which matters when the window holds only a few correlation lengths.
pub fn autocorrelation_lags_with_mean(
    f: &Grid2<f64>,
    lags: &[(i64, i64)],
    mean: f64,
) -> Vec<f64> {
    let (nx, ny) = f.shape();
    lags.iter()
        .map(|&(dx, dy)| {
            let mut acc = rrs_num::KahanSum::new();
            let mut count = 0u64;
            // Overlap region of the shifted grids.
            let x_range = overlap(nx, dx);
            let y_range = overlap(ny, dy);
            for iy in y_range.clone() {
                let jy = (iy as i64 + dy) as usize;
                for ix in x_range.clone() {
                    let jx = (ix as i64 + dx) as usize;
                    acc.add((*f.get(ix, iy) - mean) * (*f.get(jx, jy) - mean));
                    count += 1;
                }
            }
            if count == 0 {
                0.0
            } else {
                acc.value() / count as f64
            }
        })
        .collect()
}

fn overlap(n: usize, d: i64) -> core::ops::Range<usize> {
    if d >= 0 {
        let d = (d as usize).min(n);
        0..n - d
    } else {
        let d = ((-d) as usize).min(n);
        d..n
    }
}

/// Full periodic autocorrelation via the Wiener–Khinchin relation:
/// `ρ̂ = IDFT(|DFT(f − mean)|²) / (Nx·Ny)`. The output grid holds the
/// covariance at lag `(dx, dy)` in DFT bin order (use
/// [`rrs_fft::spectral::fold_index`] for the physical lag of a bin).
pub fn autocorrelation_fft(f: &Grid2<f64>) -> Grid2<f64> {
    let (nx, ny) = f.shape();
    let mean = f.mean();
    let mut buf: Vec<Complex64> =
        f.as_slice().iter().map(|&v| Complex64::from_re(v - mean)).collect();
    // Drawn from the process-wide plan cache: ensemble loops call this
    // once per realisation on the same lattice, and recomputing twiddles
    // each time dominated the estimator's cost.
    let fft = FftPlanCache::global().plan(nx, ny);
    fft.process(&mut buf, Direction::Forward, 1);
    for z in &mut buf {
        *z = Complex64::from_re(z.norm_sqr());
    }
    fft.process(&mut buf, Direction::Inverse, 1);
    let norm = 1.0 / (nx * ny) as f64;
    Grid2::from_vec(nx, ny, buf.into_iter().map(|z| z.re * norm).collect())
}

/// Extracts the normalised correlation profile `ρ̂(lag)/ρ̂(0)` along the
/// `x` axis from a periodic autocorrelation grid, up to `max_lag`.
pub fn correlation_profile_x(acf: &Grid2<f64>, max_lag: usize) -> Vec<f64> {
    let (nx, _) = acf.shape();
    let c0 = *acf.get(0, 0);
    assert!(c0 > 0.0, "zero-variance surface has no correlation profile");
    (0..=max_lag.min(nx / 2)).map(|d| *acf.get(d, 0) / c0).collect()
}

/// Same along `y`.
pub fn correlation_profile_y(acf: &Grid2<f64>, max_lag: usize) -> Vec<f64> {
    let (_, ny) = acf.shape();
    let c0 = *acf.get(0, 0);
    assert!(c0 > 0.0, "zero-variance surface has no correlation profile");
    (0..=max_lag.min(ny / 2)).map(|d| *acf.get(0, d) / c0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine_surface(nx: usize, ny: usize, kx: f64) -> Grid2<f64> {
        Grid2::from_fn(nx, ny, |ix, _| (core::f64::consts::TAU * kx * ix as f64 / nx as f64).cos())
    }

    #[test]
    fn zero_lag_is_variance() {
        let f = cosine_surface(64, 16, 4.0);
        let var = f.variance();
        let direct = autocorrelation_lags(&f, &[(0, 0)])[0];
        assert!((direct - var).abs() < 1e-12);
        let acf = autocorrelation_fft(&f);
        assert!((*acf.get(0, 0) - var).abs() < 1e-10);
    }

    #[test]
    fn cosine_has_cosine_autocorrelation() {
        // f = cos(2π·4x/N): periodic ACF is (1/2)cos(2π·4d/N).
        let n = 64;
        let f = cosine_surface(n, 8, 4.0);
        let acf = autocorrelation_fft(&f);
        for d in 0..16usize {
            let expect = 0.5 * (core::f64::consts::TAU * 4.0 * d as f64 / n as f64).cos();
            let got = *acf.get(d, 0);
            assert!((got - expect).abs() < 1e-9, "lag {d}: {got} vs {expect}");
        }
    }

    #[test]
    fn fft_and_direct_agree_for_small_lags() {
        // On a big window the open-boundary direct estimate converges to
        // the periodic one at small lags.
        let n = 128;
        let f = Grid2::from_fn(n, n, |ix, iy| {
            ((ix * 13 + iy * 7) % 31) as f64 * 0.1 + ((ix * 3 + iy * 17) % 17) as f64 * 0.05
        });
        let acf = autocorrelation_fft(&f);
        let lags = [(1i64, 0i64), (2, 0), (0, 1), (3, 2)];
        let direct = autocorrelation_lags(&f, &lags);
        for (&(dx, dy), &d) in lags.iter().zip(&direct) {
            let p = *acf.get(dx as usize, dy as usize);
            // Boundary-handling differences scale with lag/size; this is
            // a consistency check, not an equality.
            assert!((d - p).abs() < 0.2 * p.abs().max(0.2), "lag ({dx},{dy}): {d} vs {p}");
        }
    }

    #[test]
    fn negative_lags_mirror_positive_for_real_fields() {
        let f = Grid2::from_fn(32, 32, |ix, iy| ((ix * iy) % 7) as f64);
        let pos = autocorrelation_lags(&f, &[(3, 2)])[0];
        let neg = autocorrelation_lags(&f, &[(-3, -2)])[0];
        assert!((pos - neg).abs() < 1e-12);
    }

    #[test]
    fn mean_is_removed() {
        // Adding a constant must not change covariances.
        let f = Grid2::from_fn(32, 32, |ix, iy| ((ix + 2 * iy) % 5) as f64);
        let g = f.map(|&v| v + 100.0);
        let a = autocorrelation_lags(&f, &[(1, 0), (0, 2)]);
        let b = autocorrelation_lags(&g, &[(1, 0), (0, 2)]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn profiles_start_at_one() {
        let f = cosine_surface(64, 64, 3.0);
        let acf = autocorrelation_fft(&f);
        let px = correlation_profile_x(&acf, 10);
        let py = correlation_profile_y(&acf, 10);
        assert!((px[0] - 1.0).abs() < 1e-12);
        assert!((py[0] - 1.0).abs() < 1e-12);
        assert_eq!(px.len(), 11);
    }

    #[test]
    fn lag_larger_than_grid_gives_zero() {
        let f = Grid2::from_fn(8, 8, |ix, _| ix as f64);
        let c = autocorrelation_lags(&f, &[(100, 0)])[0];
        assert_eq!(c, 0.0);
    }
}
