//! One-dimensional profile generation by the convolution method.
//!
//! The exact 1-D reduction of §2.4: a centred real kernel
//! `w̃ = DFT(v)/√N` convolved with an i.i.d. `N(0,1)` lattice gives a
//! profile with the prescribed 1-D spectrum. The kernel is a
//! [`ConvolutionKernel`] one row tall and the sum is the 2-D engine's, so
//! profiles of unbounded length stream seamlessly, just like the surface
//! windows, and plug straight into `rrs-propagation` as terrain.

use crate::context::GenContext;
use crate::conv::{ConvBackend, ConvolutionGenerator};
use crate::kernel::{auto_length, ConvolutionKernel};
use crate::noise::NoiseField;
use rrs_grid::Profile;
use rrs_spectrum::line::Spectrum1d;

/// Streaming 1-D profile generator: the convolution method on a one-row
/// kernel ([`ConvolutionKernel::build_profile`]) and one row of the
/// noise lattice, evaluated by the `Direct` engine, whose sums keep
/// their bits at every kernel width.
pub struct LineGenerator {
    generator: ConvolutionGenerator,
    noise: NoiseField,
    /// The noise row used for this profile (different rows of the same
    /// seed are independent profiles).
    row: i64,
}

impl LineGenerator {
    /// Builds a generator for `spectrum` with auto kernel sizing: `8·cl`
    /// samples, rounded up to even and clamped to `[16, 4096]`.
    pub fn new<S: Spectrum1d + ?Sized>(spectrum: &S, seed: u64) -> Self {
        let n = auto_length(8.0, 16, 4096, spectrum.params().cl);
        Self::from_kernel(ConvolutionKernel::build_profile(spectrum, n), seed)
    }

    /// Wraps a prebuilt one-row kernel (a truncated one, say).
    ///
    /// # Panics
    /// Panics if `kernel` is more than one row tall.
    pub fn from_kernel(kernel: ConvolutionKernel, seed: u64) -> Self {
        let (kw, kh) = kernel.extent();
        assert!(kh == 1, "a profile kernel must be one row tall, got {kw}x{kh}");
        let ctx = GenContext::new().with_backend(ConvBackend::Direct);
        let generator = ConvolutionGenerator::from_kernel(kernel).with_context(ctx);
        Self { generator, noise: NoiseField::new(seed), row: 0 }
    }

    /// Selects an independent noise row (profile index); each row is an
    /// independent realisation of the same process.
    pub fn with_row(mut self, row: i64) -> Self {
        self.row = row;
        self
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &ConvolutionKernel {
        self.generator.kernel()
    }

    /// Generates the window `[x0, x0+len)` of the unbounded profile.
    /// Windows tile exactly.
    pub fn generate(&self, x0: i64, len: usize) -> Profile {
        assert!(len > 0, "profile window must be non-empty");
        let (kw, _) = self.kernel().extent();
        let (ox, oy) = self.kernel().origin();
        // f(n) = Σ_j w̃(j)·X(n−j): noise span [x0−(ox+kw−1), x0+len−1−ox],
        // wrapping at the ends of i64 like the noise lattice itself. The
        // span is materialised here rather than through a `Window`, which
        // rejects a profile that ends at `i64::MAX`.
        let wx0 = x0.wrapping_sub(ox + kw as i64 - 1);
        let win = self.noise.window(wx0, self.row.wrapping_sub(oy), len + kw - 1, 1);
        let heights = self.generator.try_correlate_window(&win, len, 1);
        Profile { spacing: 1.0, heights: heights.unwrap_or_else(|e| panic!("{e}")).into_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::line::{Exponential1d, Gaussian1d, LineParams};

    #[test]
    fn kernel_energy_is_variance() {
        for &(h, cl) in &[(1.0, 5.0), (2.0, 12.0)] {
            let gen = LineGenerator::new(&Gaussian1d::new(LineParams::new(h, cl)), 0);
            let k = gen.kernel();
            assert!((k.energy() - h * h).abs() < 1e-6 * h * h, "E = {}", k.energy());
        }
    }

    #[test]
    fn kernel_self_correlation_matches_rho() {
        let s = Gaussian1d::new(LineParams::new(1.0, 8.0));
        let k = ConvolutionKernel::build_profile(&s, 128);
        for d in [0i64, 4, 8, 16] {
            let got = k.self_correlation(d, 0);
            let expect = s.autocorrelation(d as f64);
            assert!((got - expect).abs() < 2e-3, "lag {d}: {got} vs {expect}");
        }
    }

    #[test]
    fn exponential_kernel_self_correlation() {
        let s = Exponential1d::new(LineParams::new(1.0, 10.0));
        let k = ConvolutionKernel::build_profile(&s, 512);
        for d in [0i64, 5, 10, 20] {
            let got = k.self_correlation(d, 0);
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
    #[should_panic(expected = "a profile kernel must be one row tall, got 16x16")]
    fn taller_kernels_are_rejected_when_the_generator_is_built() {
        use crate::kernel::KernelSizing;
        use rrs_spectrum::{Gaussian, GridSpec, SurfaceParams};
        let surface = Gaussian::new(SurfaceParams::isotropic(1.0, 2.0));
        let kernel =
            ConvolutionKernel::build(&surface, KernelSizing::Explicit(GridSpec::unit(16, 16)));
        LineGenerator::from_kernel(kernel, 1);
    }

    #[test]
    fn truncation_respects_energy_budget() {
        let k = ConvolutionKernel::build_profile(&Gaussian1d::new(LineParams::new(1.0, 6.0)), 256);
        let t = k.truncated(0.01);
        assert!(t.extent().0 < k.extent().0);
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
