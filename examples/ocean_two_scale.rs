//! A two-scale ocean-like surface — mixture spectra + rotated anisotropy.
//!
//! Sea surfaces superpose long-crested swell (long correlation length,
//! strongly anisotropic, running at some azimuth) with isotropic capillary
//! ripple. Both extensions beyond the paper compose freely with the
//! convolution generator:
//!
//! * [`rrs::spectrum::Mixture`] — spectra add under superposition;
//! * [`rrs::spectrum::Rotated`] — correlation axes at any azimuth.
//!
//! ```text
//! cargo run --release --example ocean_two_scale
//! ```

use rrs::prelude::*;
use rrs::spectrum::SpectrumModel;
use rrs::stats::slopes::{rms_slope_x, rms_slope_y};
use std::fs::File;

fn main() {
    // Swell: strongly anisotropic Gaussian, crests every ~60 samples,
    // rotated 30° off the x axis. Ripple: small isotropic exponential.
    let swell = Rotated::new(
        Gaussian::new(SurfaceParams::new(1.0, 15.0, 60.0)),
        30f64.to_radians(),
    );
    let ripple = SpectrumModel::exponential(SurfaceParams::isotropic(0.25, 3.0));

    // Generate each component against *independent* noise and superpose —
    // valid because the components are independent processes.
    let n = 512usize;
    let swell_gen = ConvolutionGenerator::new(&swell, KernelSizing::default());
    let ripple_gen = ConvolutionGenerator::new(&ripple, KernelSizing::default());
    let mut sea = swell_gen.generate(&NoiseField::new(1), Window::new(0, 0, n, n));
    let ripple_field = ripple_gen.generate(&NoiseField::new(2), Window::new(0, 0, n, n));
    sea.add_assign(&ripple_field);

    let total_h = (1.0f64 + 0.25 * 0.25).sqrt();
    println!("two-scale sea, {n}x{n}:");
    println!("  target h   : {total_h:.3}  (swell 1.0 ⊕ ripple 0.25)");
    println!("  measured h : {:.3}", sea.std_dev());

    // The mixture spectrum predicts the same statistics in one model.
    let mixture = Mixture::new(vec![
        SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 30.0)),
        SpectrumModel::exponential(SurfaceParams::isotropic(0.25, 3.0)),
    ]);
    println!(
        "  mixture model h: {:.3} (variance additivity)",
        mixture.params().h
    );

    // Anisotropy shows up in the slope field: across the (rotated) crests
    // the surface is much steeper than along them.
    println!("  rms slope x: {:.4}", rms_slope_x(&sea, 1.0));
    println!("  rms slope y: {:.4}", rms_slope_y(&sea, 1.0));

    rrs::io::try_write_ppm(File::create("ocean.ppm").expect("create file"), &sea)
        .expect("write PPM");
    println!("wrote ocean.ppm (30°-rotated swell crests with ripple texture)");
}
