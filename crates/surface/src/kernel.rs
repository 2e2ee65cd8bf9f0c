//! The convolution kernel `w̃` (paper eqns 34–35).
//!
//! Transforming the amplitude array once gives a real, even, compactly
//! concentrated kernel
//!
//! ```text
//! w̃ = DFT(v) / √(Nx·Ny),   then re-centred (fftshift, eqn 35)
//! ```
//!
//! whose self-correlation equals the surface autocorrelation:
//! `Σ_k w̃[k]·w̃[k+d] = ρ(d)`, and in particular `Σ w̃² = h²`. Convolving it
//! with unit lattice noise therefore produces a surface with exactly the
//! prescribed second-order statistics (eqn 36).
//!
//! Kernels support *truncation* (paper §2.4: "we can reduce the size of
//! the weighting array to save computation time when the correlation
//! length of a RRS is small"): the smallest centred window holding all but
//! a requested fraction of the kernel energy.

use rrs_error::RrsError;
use rrs_fft::spectral::fftshift2;
use rrs_fft::{Direction, FftPlanCache};
use rrs_grid::Grid2;
use rrs_num::Complex64;
use rrs_obs::{stage, Recorder};
use rrs_spectrum::{amplitude_array, GridSpec, Spectrum, SurfaceParams};

/// How to choose the kernel lattice for a spectrum.
///
/// `#[non_exhaustive]`: sizing policies are an open set (per-axis
/// overrides, memory budgets); match with a wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum KernelSizing {
    /// Use this lattice exactly.
    Explicit(GridSpec),
    /// Size each axis to `factor × cl / spacing`, rounded up to the next
    /// even integer and clamped to `[min, max]` samples (never below 2),
    /// at unit spacing.
    Auto {
        /// Support factor in correlation lengths (8 is a safe default).
        factor: f64,
        /// Minimum lattice size per axis.
        min: usize,
        /// Maximum lattice size per axis.
        max: usize,
    },
}

impl Default for KernelSizing {
    fn default() -> Self {
        Self::Auto { factor: 8.0, min: 16, max: 2048 }
    }
}

impl KernelSizing {
    /// Resolves the lattice for the given surface parameters.
    pub fn resolve(&self, params: SurfaceParams) -> GridSpec {
        match *self {
            Self::Explicit(spec) => spec,
            Self::Auto { factor, min, max } => {
                let pick = |cl: f64| -> usize {
                    // `as` saturates a huge product at `usize::MAX` (odd),
                    // so rounding up to even must saturate too.
                    let raw = (factor * cl).ceil() as usize;
                    let even = raw.saturating_add(raw % 2);
                    even.min(max).max(min).max(2)
                };
                GridSpec::unit(pick(params.clx), pick(params.cly))
            }
        }
    }
}

/// A centred real convolution kernel: `weights[(jy−y0)·w + (jx−x0)]` is
/// the coefficient at offset `(jx, jy)`, `x0 ≤ jx < x0 + w`.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvolutionKernel {
    weights: Grid2<f64>,
    x0: i64,
    y0: i64,
}

impl ConvolutionKernel {
    /// Builds the kernel of `spectrum` on the lattice chosen by `sizing`.
    pub fn build<S: Spectrum + ?Sized>(spectrum: &S, sizing: KernelSizing) -> Self {
        Self::build_observed(spectrum, sizing, &Recorder::disabled())
    }

    /// [`ConvolutionKernel::build`] with construction stages (amplitude
    /// evaluation, DFT, re-centring permutation) timed into `obs`. Eqns
    /// 34–35 verbatim on the lattice `sizing` resolves to; pin a lattice
    /// with [`KernelSizing::Explicit`].
    pub fn build_observed<S: Spectrum + ?Sized>(
        spectrum: &S,
        sizing: KernelSizing,
        obs: &Recorder,
    ) -> Self {
        let spec = sizing.resolve(spectrum.params());
        let v = obs.time(stage::KERNEL_AMPLITUDE, || amplitude_array(spectrum, spec));
        let (nx, ny) = (spec.nx, spec.ny);
        let span = obs.start(stage::KERNEL_DFT);
        let mut buf: Vec<Complex64> = v
            .as_slice()
            .iter()
            .map(|&x| Complex64::from_re(x))
            .collect();
        // Inhomogeneous layouts build several kernels on one lattice; the
        // process-wide plan cache transforms them with shared tables.
        FftPlanCache::global().plan(nx, ny).process(&mut buf, Direction::Forward, 1);
        obs.finish(span);
        let span = obs.start(stage::KERNEL_PERMUTE);
        let norm = 1.0 / ((nx * ny) as f64).sqrt();
        let mut weights: Vec<f64> = buf.iter().map(|z| z.re * norm).collect();
        debug_assert!(
            buf.iter().map(|z| z.im.abs()).fold(0.0, f64::max) < 1e-9,
            "kernel transform must be real (v is even)"
        );
        // Eqn (35): permute so the kernel peak sits at the array centre.
        fftshift2(&mut weights, nx, ny);
        obs.finish(span);
        Self {
            weights: Grid2::from_vec(nx, ny, weights),
            x0: -((nx / 2) as i64),
            y0: -((ny / 2) as i64),
        }
    }

    /// Bytes building a kernel on `spec` allocates: the amplitudes, the
    /// complex transform buffer and the weights, all alive at once (32
    /// bytes a sample; the transform's lane scratch grows only with
    /// `nx + ny`). Widened so no lattice overflows it.
    pub fn build_bytes(spec: GridSpec) -> u128 {
        let per_sample = 2 * std::mem::size_of::<f64>() + std::mem::size_of::<Complex64>();
        spec.nx as u128 * spec.ny as u128 * per_sample as u128
    }

    /// Builds a kernel directly from explicit centred weights: element
    /// `(0, 0)` of `weights` is the coefficient at offset `(x0, y0)`.
    pub fn from_parts(weights: Grid2<f64>, x0: i64, y0: i64) -> Self {
        Self { weights, x0, y0 }
    }

    /// The centred weight grid.
    pub fn weights(&self) -> &Grid2<f64> {
        &self.weights
    }

    /// Offset of weight element `(0, 0)`, i.e. the most negative lags.
    pub fn origin(&self) -> (i64, i64) {
        (self.x0, self.y0)
    }

    /// Kernel extent `(w, h)` in samples.
    pub fn extent(&self) -> (usize, usize) {
        self.weights.shape()
    }

    /// Total kernel energy `Σ w̃²` — equals the surface variance `h²` (up
    /// to spectral truncation).
    pub fn energy(&self) -> f64 {
        let mut s = rrs_num::KahanSum::new();
        for &v in self.weights.as_slice() {
            s.add(v * v);
        }
        s.value()
    }

    /// Kernel self-correlation at integer lag `(dx, dy)`:
    /// `Σ_k w̃[k]·w̃[k+d]`, which must reproduce `ρ(dx, dy)`.
    pub fn self_correlation(&self, dx: i64, dy: i64) -> f64 {
        let (w, h) = self.extent();
        let mut s = rrs_num::KahanSum::new();
        for jy in 0..h as i64 {
            let ky = jy + dy;
            if ky < 0 || ky >= h as i64 {
                continue;
            }
            for jx in 0..w as i64 {
                let kx = jx + dx;
                if kx < 0 || kx >= w as i64 {
                    continue;
                }
                s.add(
                    *self.weights.get(jx as usize, jy as usize)
                        * *self.weights.get(kx as usize, ky as usize),
                );
            }
        }
        s.value()
    }

    /// Returns the smallest centred truncation of the kernel that keeps
    /// the relative root-energy loss at or below `epsilon`.
    ///
    /// The truncated kernel keeps the aspect ratio of the full one and has
    /// odd extents `(2rx+1) × (2ry+1)` so it stays exactly centred.
    ///
    /// # Panics
    /// Panics unless `0 < epsilon < 1`. Fallible callers use
    /// [`ConvolutionKernel::try_truncated`].
    pub fn truncated(&self, epsilon: f64) -> Self {
        self.try_truncated(epsilon, &Recorder::disabled()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ConvolutionKernel::truncated`], with the truncation
    /// search (energy scan + binary search + crop) timed into `obs`: the
    /// energy budget `epsilon` must be finite and strictly inside `(0, 1)`
    /// (NaN is rejected too — both comparisons fail on it).
    pub fn try_truncated(&self, epsilon: f64, obs: &Recorder) -> Result<Self, RrsError> {
        let span = obs.start(stage::KERNEL_TRUNCATE);
        let out = self.truncate_impl(epsilon);
        obs.finish(span);
        out
    }

    fn truncate_impl(&self, epsilon: f64) -> Result<Self, RrsError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(RrsError::invalid_param(
                "epsilon",
                format!("epsilon must be in (0,1), got {epsilon}"),
            ));
        }
        let total = self.energy();
        if total == 0.0 {
            return Ok(self.clone());
        }
        let (w, h) = self.extent();
        let (hx, hy) = ((w / 2) as i64, (h / 2) as i64);
        // Binary search the scale factor t: window half-widths
        // (ceil(t·hx), ceil(t·hy)). The predicate depends on t only
        // through them, and most of the 40 steps land on a window already
        // summed, so each distinct window's verdict is kept.
        let half_widths = |t: f64| {
            let r = |half: i64| ((t * half as f64).ceil() as i64).min(half - 1).max(0);
            (r(hx), r(hy))
        };
        let mut seen: Vec<((i64, i64), bool)> = Vec::new();
        let mut ok = |t: f64| -> bool {
            let (rx, ry) = half_widths(t);
            if let Some(&(_, verdict)) = seen.iter().find(|(r, _)| *r == (rx, ry)) {
                return verdict;
            }
            let verdict = self.window_energy(rx, ry) >= total * (1.0 - epsilon * epsilon);
            seen.push(((rx, ry), verdict));
            verdict
        };
        if !ok(1.0) {
            // Even the largest centred odd window can't hold the energy
            // (it drops the outermost rows) — keep the full kernel.
            return Ok(self.clone());
        }
        if ok(0.0) {
            // The centre tap alone holds the energy. The bisection never
            // evaluates t = 0, and ceil(t·half) ≥ 1 for every t > 0.
            return Ok(self.crop(0, 0));
        }
        let mut lo = 0.0;
        let mut hi = 1.0;
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            if ok(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let (rx, ry) = half_widths(hi);
        Ok(self.crop(rx, ry))
    }

    /// Energy within the centred window of half-widths `(rx, ry)`.
    fn window_energy(&self, rx: i64, ry: i64) -> f64 {
        let mut s = rrs_num::KahanSum::new();
        for jy in -ry..=ry {
            for jx in -rx..=rx {
                let v = self.weight_at(jx, jy);
                s.add(v * v);
            }
        }
        s.value()
    }

    /// The weight at offset `(jx, jy)`, zero outside the stored extent.
    #[inline]
    pub fn weight_at(&self, jx: i64, jy: i64) -> f64 {
        let ix = jx - self.x0;
        let iy = jy - self.y0;
        let (w, h) = self.extent();
        if ix < 0 || iy < 0 || ix >= w as i64 || iy >= h as i64 {
            return 0.0;
        }
        *self.weights.get(ix as usize, iy as usize)
    }

    /// Crops to the centred window of half-widths `(rx, ry)`, producing an
    /// odd-extent kernel.
    pub fn crop(&self, rx: i64, ry: i64) -> Self {
        let w = (2 * rx + 1) as usize;
        let h = (2 * ry + 1) as usize;
        let weights = Grid2::from_fn(w, h, |ix, iy| {
            self.weight_at(ix as i64 - rx, iy as i64 - ry)
        });
        Self { weights, x0: -rx, y0: -ry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::{Exponential, Gaussian, PowerLaw};

    fn gaussian_kernel(h: f64, cl: f64, n: usize) -> ConvolutionKernel {
        ConvolutionKernel::build(
            &Gaussian::new(SurfaceParams::isotropic(h, cl)),
            KernelSizing::Explicit(GridSpec::unit(n, n)),
        )
    }

    #[test]
    fn auto_sizing_clamps_huge_and_tiny_correlation_lengths() {
        let sizing = KernelSizing::default();
        let huge = SurfaceParams::isotropic(1.0, 1e300);
        assert_eq!(sizing.resolve(huge), GridSpec::unit(2048, 2048), "saturates to max");
        let tiny = SurfaceParams::isotropic(1.0, 1e-300);
        assert_eq!(sizing.resolve(tiny), GridSpec::unit(16, 16), "rounds up to min");
        let one = KernelSizing::Auto { factor: 8.0, min: 1, max: 1 };
        assert_eq!(one.resolve(huge), GridSpec::unit(2, 2), "never below 2");
        let spec = sizing.resolve(SurfaceParams::new(1.0, 10.0, 1e300));
        assert_eq!(ConvolutionKernel::build_bytes(spec), 80 * 2048 * 32);
    }

    #[test]
    fn energy_equals_variance() {
        for &(h, cl) in &[(1.0, 5.0), (2.0, 10.0), (0.5, 3.0)] {
            let k = gaussian_kernel(h, cl, 128);
            assert!((k.energy() - h * h).abs() < 1e-6 * h * h, "h={h}: E = {}", k.energy());
        }
    }

    #[test]
    fn kernel_is_centred_and_even() {
        let k = gaussian_kernel(1.0, 6.0, 64);
        assert_eq!(k.origin(), (-32, -32));
        // Peak at the origin offset.
        let peak = k.weight_at(0, 0);
        for &(jx, jy) in &[(1i64, 0i64), (0, 1), (5, 5), (-7, 3)] {
            assert!(peak >= k.weight_at(jx, jy), "peak must dominate ({jx},{jy})");
            // Even symmetry.
            assert!((k.weight_at(jx, jy) - k.weight_at(-jx, -jy)).abs() < 1e-12);
        }
    }

    #[test]
    fn self_correlation_reproduces_autocorrelation() {
        // The defining property of the convolution method: kernel
        // self-correlation at lag d equals ρ(d).
        let h = 1.5;
        let cl = 8.0;
        let s = Gaussian::new(SurfaceParams::isotropic(h, cl));
        let k = ConvolutionKernel::build(&s, KernelSizing::Explicit(GridSpec::unit(128, 128)));
        for &(dx, dy) in &[(0i64, 0i64), (4, 0), (0, 4), (8, 0), (6, 6), (16, 0)] {
            let got = k.self_correlation(dx, dy);
            let expect = s.autocorrelation(dx as f64, dy as f64);
            assert!(
                (got - expect).abs() < 2e-3 * h * h,
                "lag ({dx},{dy}): {got} vs {expect}"
            );
        }
    }

    #[test]
    fn self_correlation_exponential_spectrum() {
        let s = Exponential::new(SurfaceParams::isotropic(1.0, 10.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::Explicit(GridSpec::unit(256, 256)));
        for &(dx, dy) in &[(0i64, 0i64), (5, 0), (0, 10), (10, 10)] {
            let got = k.self_correlation(dx, dy);
            let expect = s.autocorrelation(dx as f64, dy as f64);
            assert!((got - expect).abs() < 0.05, "lag ({dx},{dy}): {got} vs {expect}");
        }
    }

    #[test]
    fn self_correlation_power_law_spectrum() {
        let s = PowerLaw::new(SurfaceParams::isotropic(1.0, 10.0), 2.0);
        let k = ConvolutionKernel::build(&s, KernelSizing::Explicit(GridSpec::unit(256, 256)));
        for &(dx, dy) in &[(0i64, 0i64), (5, 0), (0, 8)] {
            let got = k.self_correlation(dx, dy);
            let expect = s.autocorrelation(dx as f64, dy as f64);
            assert!((got - expect).abs() < 0.05, "lag ({dx},{dy}): {got} vs {expect}");
        }
    }

    #[test]
    fn truncation_keeps_energy_budget() {
        let k = gaussian_kernel(1.0, 5.0, 128);
        let full = k.energy();
        for &eps in &[0.1, 0.01, 1e-3] {
            let t = k.truncated(eps);
            let kept = t.energy();
            let loss = ((full - kept).max(0.0) / full).sqrt();
            assert!(loss <= eps * 1.01, "eps={eps}: loss {loss}");
            let (w, h) = t.extent();
            assert!(w % 2 == 1 && h % 2 == 1, "odd extents");
        }
    }

    #[test]
    fn a_centre_tap_that_holds_the_budget_truncates_to_one_tap() {
        for (cl, eps) in [(0.2, 0.3), (0.3, 0.3), (0.5, 0.3), (0.2, 0.05), (0.3, 0.05)] {
            let s = Gaussian::new(SurfaceParams::isotropic(1.0, cl));
            let k = ConvolutionKernel::build(&s, KernelSizing::default());
            assert_eq!(k.extent(), (16, 16), "the default lattice's floor");
            let t = k.truncated(eps);
            assert_eq!(t.extent(), (1, 1), "cl {cl}, eps {eps}");
            assert_eq!(t.origin(), (0, 0));
            assert!(t.energy() >= k.energy() * (1.0 - eps * eps), "eps {eps}");
        }
    }

    #[test]
    fn tighter_epsilon_gives_bigger_kernel() {
        let k = gaussian_kernel(1.0, 5.0, 128);
        let loose = k.truncated(0.05).extent().0;
        let tight = k.truncated(1e-4).extent().0;
        assert!(tight > loose, "tight {tight} vs loose {loose}");
        // Both are far smaller than the full 128 support for cl=5.
        assert!(tight < 128);
    }

    #[test]
    fn truncated_kernel_preserves_statistics() {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, 5.0));
        let k = ConvolutionKernel::build(&s, KernelSizing::Explicit(GridSpec::unit(128, 128)))
            .truncated(1e-3);
        for &(dx, dy) in &[(0i64, 0i64), (3, 0), (0, 5)] {
            let got = k.self_correlation(dx, dy);
            let expect = s.autocorrelation(dx as f64, dy as f64);
            assert!((got - expect).abs() < 5e-3, "lag ({dx},{dy})");
        }
    }

    #[test]
    fn auto_sizing_scales_with_correlation_length() {
        let small = KernelSizing::default().resolve(SurfaceParams::isotropic(1.0, 4.0));
        let large = KernelSizing::default().resolve(SurfaceParams::isotropic(1.0, 40.0));
        assert!(large.nx > small.nx);
        assert_eq!(small.nx % 2, 0);
        // Anisotropic: each axis sized independently.
        let aniso = KernelSizing::default().resolve(SurfaceParams::new(1.0, 4.0, 40.0));
        assert!(aniso.ny > aniso.nx);
    }

    #[test]
    fn explicit_sizing_is_respected() {
        let spec = GridSpec::unit(32, 64);
        let k = ConvolutionKernel::build(
            &Gaussian::new(SurfaceParams::isotropic(1.0, 5.0)),
            KernelSizing::Explicit(spec),
        );
        assert_eq!(k.extent(), (32, 64));
    }

    #[test]
    fn weight_at_outside_extent_is_zero() {
        let k = gaussian_kernel(1.0, 4.0, 32);
        assert_eq!(k.weight_at(100, 0), 0.0);
        assert_eq!(k.weight_at(0, -100), 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0,1)")]
    fn bad_epsilon_rejected() {
        gaussian_kernel(1.0, 4.0, 32).truncated(1.5);
    }
}
