//! One-dimensional profile generation by the convolution method.
//!
//! The exact 1-D reduction of §2.4: a centred real kernel
//! `w̃ = DFT(v)/√N` convolved with an i.i.d. `N(0,1)` lattice gives a
//! profile with the prescribed 1-D spectrum. Profiles of unbounded
//! length stream seamlessly, just like the 2-D surface windows, and plug
//! straight into `rrs-propagation` as terrain.

use crate::noise::NoiseField;
use rrs_fft::spectral::fftshift;
use rrs_fft::{Direction, Fft};
use rrs_grid::Profile;
use rrs_num::Complex64;
use rrs_spectrum::line::{amplitude_array_1d, Spectrum1d};

/// A centred 1-D convolution kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct LineKernel {
    weights: Vec<f64>,
    origin: i64,
}

impl LineKernel {
    /// Builds the kernel of `spectrum` on an `n`-sample lattice at unit
    /// spacing. `n` is typically `factor × cl` rounded up to even; 8–10
    /// correlation lengths suffice for the Gaussian family, more for the
    /// heavy-tailed Exponential.
    pub fn build<S: Spectrum1d + ?Sized>(spectrum: &S, n: usize) -> Self {
        let v = amplitude_array_1d(spectrum, n, 1.0);
        let mut buf: Vec<Complex64> = v.iter().map(|&x| Complex64::from_re(x)).collect();
        Fft::new(n).process(&mut buf, Direction::Forward);
        let norm = 1.0 / (n as f64).sqrt();
        let mut weights: Vec<f64> = buf.iter().map(|z| z.re * norm).collect();
        debug_assert!(
            buf.iter().map(|z| z.im.abs()).fold(0.0, f64::max) < 1e-9,
            "1-D kernel transform must be real"
        );
        fftshift(&mut weights);
        Self { weights, origin: -((n / 2) as i64) }
    }

    /// Builds with the default sizing `8·cl` (clamped to `[16, 4096]`).
    pub fn build_auto<S: Spectrum1d + ?Sized>(spectrum: &S) -> Self {
        let cl = spectrum.params().cl;
        let raw = (8.0 * cl).ceil() as usize;
        let n = (raw + raw % 2).clamp(16, 4096);
        Self::build(spectrum, n)
    }

    /// The kernel coefficients (centred layout).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Offset of the first coefficient.
    pub fn origin(&self) -> i64 {
        self.origin
    }

    /// Kernel energy `Σw̃²` — the profile variance `h²`.
    pub fn energy(&self) -> f64 {
        self.weights.iter().map(|v| v * v).sum()
    }

    /// Kernel self-correlation at lag `d` — reproduces `ρ(d)`.
    pub fn self_correlation(&self, d: usize) -> f64 {
        if d >= self.weights.len() {
            return 0.0;
        }
        self.weights[d..]
            .iter()
            .zip(&self.weights)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Truncates to the smallest centred window losing at most `epsilon`
    /// of the root energy.
    pub fn truncated(&self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        let total = self.energy();
        if total == 0.0 {
            return self.clone();
        }
        let half = (self.weights.len() / 2) as i64;
        let energy_within = |r: i64| -> f64 {
            let lo = (half - r).max(0) as usize;
            let hi = ((half + r + 1) as usize).min(self.weights.len());
            self.weights[lo..hi].iter().map(|v| v * v).sum()
        };
        let mut r = 0i64;
        while r < half && energy_within(r) < total * (1.0 - epsilon * epsilon) {
            r += 1;
        }
        let lo = (half - r).max(0) as usize;
        let hi = ((half + r + 1) as usize).min(self.weights.len());
        Self { weights: self.weights[lo..hi].to_vec(), origin: -r }
    }
}

/// Streaming 1-D profile generator.
pub struct LineGenerator {
    kernel: LineKernel,
    noise: NoiseField,
    /// The noise row used for this profile (different rows of the same
    /// seed are independent profiles).
    row: i64,
}

impl LineGenerator {
    /// Builds a generator for `spectrum` with auto kernel sizing.
    pub fn new<S: Spectrum1d + ?Sized>(spectrum: &S, seed: u64) -> Self {
        Self::from_kernel(LineKernel::build_auto(spectrum), seed)
    }

    /// Wraps a prebuilt kernel.
    pub fn from_kernel(kernel: LineKernel, seed: u64) -> Self {
        Self { kernel, noise: NoiseField::new(seed), row: 0 }
    }

    /// Selects an independent noise row (profile index); each row is an
    /// independent realisation of the same process.
    pub fn with_row(mut self, row: i64) -> Self {
        self.row = row;
        self
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &LineKernel {
        &self.kernel
    }

    /// Generates the window `[x0, x0+len)` of the unbounded profile.
    /// Windows tile exactly.
    pub fn generate(&self, x0: i64, len: usize) -> Profile {
        assert!(len > 0, "profile window must be non-empty");
        let kw = self.kernel.weights.len();
        let ox = self.kernel.origin;
        // f(n) = Σ_j w̃(j)·X(n−j): noise span [x0−(ox+kw−1), x0+len−1−ox],
        // wrapping at the ends of i64 like the noise lattice itself.
        let wx0 = x0.wrapping_sub(ox + kw as i64 - 1);
        let ww = len + kw - 1;
        let win = self.noise.window(wx0, self.row, ww, 1);
        let heights = (0..len)
            .map(|i| {
                let mut acc = 0.0;
                for (a, &kv) in self.kernel.weights.iter().enumerate() {
                    acc += kv * win[i + kw - 1 - a];
                }
                acc
            })
            .collect();
        Profile { spacing: 1.0, heights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::line::{Exponential1d, Gaussian1d, LineParams};

    #[test]
    fn kernel_energy_is_variance() {
        for &(h, cl) in &[(1.0, 5.0), (2.0, 12.0)] {
            let k = LineKernel::build_auto(&Gaussian1d::new(LineParams::new(h, cl)));
            assert!((k.energy() - h * h).abs() < 1e-6 * h * h, "E = {}", k.energy());
        }
    }

    #[test]
    fn kernel_self_correlation_matches_rho() {
        let s = Gaussian1d::new(LineParams::new(1.0, 8.0));
        let k = LineKernel::build(&s, 128);
        for d in [0usize, 4, 8, 16] {
            let got = k.self_correlation(d);
            let expect = s.autocorrelation(d as f64);
            assert!((got - expect).abs() < 2e-3, "lag {d}: {got} vs {expect}");
        }
    }

    #[test]
    fn exponential_kernel_self_correlation() {
        let s = Exponential1d::new(LineParams::new(1.0, 10.0));
        let k = LineKernel::build(&s, 512);
        for d in [0usize, 5, 10, 20] {
            let got = k.self_correlation(d);
            let expect = s.autocorrelation(d as f64);
            assert!((got - expect).abs() < 0.05, "lag {d}: {got} vs {expect}");
        }
    }

    #[test]
    fn windows_tile_exactly() {
        let gen = LineGenerator::new(&Gaussian1d::new(LineParams::new(1.0, 6.0)), 7);
        let whole = gen.generate(-10, 100);
        let left = gen.generate(-10, 40);
        let right = gen.generate(30, 60);
        for i in 0..40 {
            assert_eq!(whole.heights[i], left.heights[i]);
        }
        for i in 0..60 {
            assert_eq!(whole.heights[40 + i], right.heights[i]);
        }
    }

    #[test]
    fn profile_statistics_match_target() {
        let h = 1.5;
        let gen = LineGenerator::new(&Gaussian1d::new(LineParams::new(h, 6.0)), 3);
        // One long profile: 20k samples ≈ 3300 patches.
        let p = gen.generate(0, 20_000);
        let var = p.heights.iter().map(|v| v * v).sum::<f64>() / p.heights.len() as f64;
        assert!((var.sqrt() - h).abs() < 0.1, "ĥ = {}", var.sqrt());
    }

    #[test]
    fn rows_are_independent_realisations() {
        let s = Gaussian1d::new(LineParams::new(1.0, 5.0));
        let a = LineGenerator::new(&s, 9).with_row(0).generate(0, 256);
        let b = LineGenerator::new(&s, 9).with_row(1).generate(0, 256);
        assert_ne!(a.heights, b.heights);
        // Cross-correlation near zero.
        let c: f64 = a
            .heights
            .iter()
            .zip(&b.heights)
            .map(|(x, y)| x * y)
            .sum::<f64>()
            / 256.0;
        assert!(c.abs() < 0.3, "cross-corr {c}");
    }

    #[test]
    fn truncation_respects_energy_budget() {
        let k = LineKernel::build(&Gaussian1d::new(LineParams::new(1.0, 6.0)), 256);
        let t = k.truncated(0.01);
        assert!(t.weights().len() < k.weights().len());
        let loss = ((k.energy() - t.energy()).max(0.0) / k.energy()).sqrt();
        assert!(loss <= 0.0101, "loss {loss}");
    }

    fn fnv1a(heights: &[f64]) -> u64 {
        let bytes: Vec<u8> = heights.iter().flat_map(|v| v.to_le_bytes()).collect();
        rrs_num::fnv1a(&bytes)
    }

    fn hashed_generator() -> LineGenerator {
        LineGenerator::new(&Gaussian1d::new(LineParams::new(1.0, 6.0)), 7)
    }

    #[test]
    fn mid_lattice_profiles_keep_their_hash() {
        // Its noise row spans many fill blocks and ends mid-block.
        // Re-recorded once when the lattice's key and deviate changed.
        let p = hashed_generator().with_row(-3).generate(-1234, 1500);
        assert_eq!(fnv1a(&p.heights), 0xc2a8_ea48_8ee2_b0e9);
    }

    #[test]
    fn profiles_at_the_lattice_ends_wrap_like_release_builds() {
        // First recorded from a release build (which wrapped) before the
        // noise origin wrapped in every build, when a test build panicked;
        // re-recorded once when the lattice's key and deviate changed.
        let gen = hashed_generator();
        let got = [i64::MIN, i64::MAX - 63].map(|x0| fnv1a(&gen.generate(x0, 64).heights));
        assert_eq!(got, [0x0161_3264_74ba_f1f0, 0x7037_1863_a693_97bc]);
    }

    #[test]
    fn measured_autocorrelation_matches_model() {
        let s = Exponential1d::new(LineParams::new(1.0, 8.0));
        let gen = LineGenerator::new(&s, 21);
        let p = gen.generate(0, 40_000);
        for d in [1usize, 4, 8, 16] {
            let mut acc = 0.0;
            for i in 0..p.heights.len() - d {
                acc += p.heights[i] * p.heights[i + d];
            }
            let got = acc / (p.heights.len() - d) as f64;
            let expect = s.autocorrelation(d as f64);
            assert!((got - expect).abs() < 0.06, "lag {d}: {got} vs {expect}");
        }
    }
}
