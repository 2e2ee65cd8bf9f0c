//! Quickstart: generate one homogeneous random rough surface, check its
//! statistics against the requested parameters, and render it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rrs::prelude::*;
use std::fs::File;

fn main() {
    // A Gaussian-spectrum surface: height std-dev 1.5, correlation
    // length 12 samples in both directions.
    let params = SurfaceParams::isotropic(1.5, 12.0);
    let spectrum = Gaussian::new(params);

    // The convolution method: build the kernel once, then stamp out any
    // window of an unbounded surface.
    let generator = ConvolutionGenerator::new(&spectrum, KernelSizing::default());
    let noise = NoiseField::new(2024);
    let surface = generator.generate(&noise, Window::new(0, 0, 512, 512));

    println!("generated a {}x{} surface", surface.nx(), surface.ny());
    println!("  min/max height : {:+.3} / {:+.3}", surface.min(), surface.max());

    // Quantitative check: measured std-dev and correlation length vs target.
    let report = validate_region(&surface, &spectrum, 0, 0, 512, 512);
    println!("  target h       : {:.3}", report.target.h);
    println!("  measured h     : {:.3}  ({:.1}% off)", report.h_measured, 100.0 * report.h_rel_error());
    println!("  target cl      : {:.1}", report.target.clx);
    println!(
        "  measured cl    : {}",
        report
            .clx_measured
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "unresolved".into())
    );
    println!("  skew / kurtosis: {:+.2} / {:.2}  (Gaussian: 0 / 3)", report.skewness, report.kurtosis);

    // Render to a grayscale PGM you can open with any image viewer.
    let path = "quickstart_surface.pgm";
    rrs::io::try_write_pgm(File::create(path).expect("create file"), &surface).expect("write PGM");
    println!("wrote {path}");
}
