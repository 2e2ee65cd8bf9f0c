//! Cross-crate integration: the two generation methods of the paper are
//! the same method.
//!
//! §2.4 derives the convolution method from the direct DFT method through
//! the convolution theorem. These tests enforce both halves of that
//! claim: *exact* agreement when driven by the same randomness, and
//! *statistical* agreement across ensembles — for every spectrum family
//! and independent of the RNG family driving the noise.

use rrs::fft::{Direction, Fft2d};
use rrs::grid::Grid2;
use rrs::prelude::*;
use rrs::rng::{Pcg32, Xoshiro256pp};
use rrs::surface::hermitian::hermitian_gaussian_array;

/// Exact identity: f_direct(u) == w̃ ⊛ (DFT(u)/√N), for all spectra.
#[test]
fn direct_and_convolution_agree_exactly_per_spectrum() {
    let p = SurfaceParams::isotropic(1.2, 4.0);
    let spectra: Vec<SpectrumModel> = vec![
        SpectrumModel::gaussian(p),
        SpectrumModel::power_law(p, 2.0),
        SpectrumModel::power_law(p, 3.0),
        SpectrumModel::exponential(p),
    ];
    let spec = GridSpec::unit(24, 24);
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let u = hermitian_gaussian_array(spec.nx, spec.ny, &mut rng);

    // Shared noise grid X = DFT(u)/sqrt(N).
    let mut x = u.clone();
    Fft2d::new(spec.nx, spec.ny).process(&mut x, Direction::Forward, 1);
    let scale = 1.0 / ((spec.nx * spec.ny) as f64).sqrt();
    let noise = Grid2::from_vec(spec.nx, spec.ny, x.iter().map(|z| z.re * scale).collect());

    for (i, s) in spectra.iter().enumerate() {
        let f_direct =
            DirectDftGenerator::with_workers(*s, spec, 1).generate_from_bins(&u);
        let kernel = ConvolutionKernel::build(s, KernelSizing::Explicit(spec));
        let f_conv = ConvolutionGenerator::from_kernel(kernel)
            .with_context(GenContext::new().with_workers(1))
            .convolve_periodic(&noise);
        let err = f_direct
            .as_slice()
            .iter()
            .zip(f_conv.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "spectrum {i}: methods disagree by {err}");
    }
}

/// Ensemble statistics agree between methods (independent randomness).
#[test]
fn ensemble_statistics_agree_between_methods() {
    let h = 1.5;
    let cl = 6.0;
    let p = SurfaceParams::isotropic(h, cl);
    let s = Gaussian::new(p);
    let n = 128usize;
    let reps = 10u64;

    let direct = DirectDftGenerator::with_workers(s, GridSpec::unit(n, n), 1);
    let conv = ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_context(GenContext::new().with_workers(1));

    let mut var_direct = 0.0;
    let mut var_conv = 0.0;
    for seed in 0..reps {
        let fd = direct.generate(seed);
        var_direct += fd.as_slice().iter().map(|v| v * v).sum::<f64>() / fd.len() as f64;
        let fc = conv.generate(&NoiseField::new(seed), Window::new(0, 0, n, n));
        var_conv += fc.as_slice().iter().map(|v| v * v).sum::<f64>() / fc.len() as f64;
    }
    var_direct /= reps as f64;
    var_conv /= reps as f64;
    let target = h * h;
    assert!((var_direct - target).abs() < 0.15 * target, "direct var {var_direct}");
    assert!((var_conv - target).abs() < 0.15 * target, "conv var {var_conv}");
    assert!(
        (var_direct - var_conv).abs() < 0.2 * target,
        "methods disagree: {var_direct} vs {var_conv}"
    );
}

/// The surface statistics must not depend on which RNG family drives the
/// direct method (xoshiro256++ vs PCG32 — independent designs).
#[test]
fn statistics_are_rng_family_invariant() {
    let p = SurfaceParams::isotropic(1.0, 5.0);
    let s = Gaussian::new(p);
    let spec = GridSpec::unit(128, 128);
    let gen = DirectDftGenerator::with_workers(s, spec, 1);
    let reps = 8;

    let mut var_xo = 0.0;
    let mut var_pcg = 0.0;
    for seed in 0..reps {
        let mut xo = Xoshiro256pp::seed_from_u64(seed);
        let fx = gen.generate_with(&mut xo);
        var_xo += fx.variance();
        let mut pcg = Pcg32::seed_from_u64(seed);
        let fp = gen.generate_with(&mut pcg);
        var_pcg += fp.variance();
    }
    var_xo /= reps as f64;
    var_pcg /= reps as f64;
    assert!((var_xo - 1.0).abs() < 0.12, "xoshiro var {var_xo}");
    assert!((var_pcg - 1.0).abs() < 0.12, "pcg var {var_pcg}");
    assert!((var_xo - var_pcg).abs() < 0.15, "{var_xo} vs {var_pcg}");
}

/// The measured autocorrelation of generated surfaces matches the model's
/// closed form, method-independently.
#[test]
fn measured_autocorrelation_matches_model() {
    let p = SurfaceParams::isotropic(1.0, 8.0);
    let s = Gaussian::new(p);
    let n = 256usize;
    let conv = ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_context(GenContext::new().with_workers(2));
    let f = conv.generate(&NoiseField::new(77), Window::new(0, 0, n, n));
    let lags: Vec<(i64, i64)> = vec![(0, 0), (4, 0), (8, 0), (0, 8), (12, 0), (6, 6)];
    let measured = rrs::stats::autocorrelation_lags_with_mean(&f, &lags, 0.0);
    use rrs::spectrum::Spectrum;
    for (&(dx, dy), &got) in lags.iter().zip(&measured) {
        let expect = s.autocorrelation(dx as f64, dy as f64);
        assert!(
            (got - expect).abs() < 0.12,
            "lag ({dx},{dy}): measured {got}, model {expect}"
        );
    }
}

/// Parallelism must never change results, across the whole pipeline.
#[test]
fn full_pipeline_is_worker_count_invariant() {
    let p = SurfaceParams::new(1.0, 6.0, 9.0);
    let s = Exponential::new(p);
    for &(w1, w2) in &[(1usize, 4usize), (2, 8)] {
        let a = DirectDftGenerator::with_workers(s, GridSpec::unit(64, 64), w1).generate(3);
        let b = DirectDftGenerator::with_workers(s, GridSpec::unit(64, 64), w2).generate(3);
        assert_eq!(a, b, "direct method differs between {w1} and {w2} workers");
        let ka = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(GenContext::new().with_workers(w1));
        let kb = ConvolutionGenerator::new(&s, KernelSizing::default())
            .with_context(GenContext::new().with_workers(w2));
        let noise = NoiseField::new(9);
        assert_eq!(
            ka.generate(&noise, Window::new(-7, 3, 60, 40)),
            kb.generate(&noise, Window::new(-7, 3, 60, 40)),
            "convolution differs between {w1} and {w2} workers"
        );
    }
}

/// FNV-1a of a surface's bits.
fn hash_grid(g: &Grid2<f64>) -> u64 {
    let bytes: Vec<u8> = g.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    rrs::num::fnv1a(&bytes)
}

/// The direct method's output, pinned bit for bit: every family on a
/// radix-2 (64²) and a Bluestein (96×80) lattice, at one and two workers.
/// The direct method draws from `Xoshiro256pp`, not the noise lattice.
#[test]
fn direct_method_keeps_its_hashes_at_every_worker_count() {
    const HASHES: [(&str, (usize, usize), u64); 6] = [
        ("gaussian", (64, 64), 0x948b_b937_f882_4a73),
        ("gaussian", (96, 80), 0xc3d7_ed8e_f396_8e9c),
        ("power_law_2", (64, 64), 0xece8_f4de_18e6_dc56),
        ("power_law_2", (96, 80), 0x456f_0ae9_da05_16e0),
        ("exponential", (64, 64), 0x4cda_09fe_1f03_23c7),
        ("exponential", (96, 80), 0x9642_c18d_4a6f_2de8),
    ];
    let p = SurfaceParams::isotropic(1.0, 6.0);
    for (name, (nx, ny), want) in HASHES {
        let s = match name {
            "gaussian" => SpectrumModel::gaussian(p),
            "power_law_2" => SpectrumModel::power_law(p, 2.0),
            _ => SpectrumModel::exponential(p),
        };
        for workers in [1, 2] {
            let f =
                DirectDftGenerator::with_workers(s, GridSpec::unit(nx, ny), workers).generate(31);
            assert_eq!(hash_grid(&f), want, "{name} {nx}x{ny} at {workers} workers");
        }
    }
}
