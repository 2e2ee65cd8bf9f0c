//! The paper's Figure 3 scenario: a vegetable field containing a pond.
//!
//! A circular region with a smooth Exponential-spectrum surface
//! (h = 0.2, cl = 50 — water) sits inside a rougher Gaussian-spectrum
//! field (h = 1.0, cl = 50 — crops), blended across a 100-sample
//! transition ring by the plate-oriented method.
//!
//! ```text
//! cargo run --release --example vegetable_field_pond
//! ```

use rrs::prelude::*;
use std::fs::File;

fn main() {
    // Work at quarter scale of the paper's figure so the example runs in
    // about a second; multiply the constants by 4 for the full figure.
    let n = 384usize;
    let centre = n as f64 / 2.0;
    let radius = 125.0;
    let transition = 25.0;
    let cl = 12.5;

    let pond = SpectrumModel::exponential(SurfaceParams::isotropic(0.2, cl));
    let field = SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, cl));

    let layout = PlateLayout::new(
        vec![Plate {
            region: Region::Circle { cx: centre, cy: centre, r: radius },
            spectrum: pond,
        }],
        Some(field),
        transition,
    );
    let generator = InhomogeneousGenerator::new(layout, KernelSizing::default());
    let surface = generator.generate(&NoiseField::new(7), Window::sized(n, n));

    // Validate the two homogeneous zones.
    let side = (radius / std::f64::consts::SQRT_2) as usize - 20;
    let c = n / 2;
    let pond_report =
        validate_region(&surface, &pond, c - side / 2, c - side / 2, side, side);
    let strip = (centre - radius - transition) as usize - 10;
    let field_report = validate_region(&surface, &field, 0, 0, n, strip);

    println!("pond : target h = {:.2}, measured h = {:.3}", pond_report.target.h, pond_report.h_measured);
    println!("field: target h = {:.2}, measured h = {:.3}", field_report.target.h, field_report.h_measured);
    assert!(
        field_report.h_measured > 3.0 * pond_report.h_measured,
        "the pond must be much smoother than the field"
    );

    let path = "field_pond.ppm";
    rrs::io::try_write_ppm(File::create(path).expect("create file"), &surface).expect("write PPM");
    println!("wrote {path} (false-colour heightmap — the flat disc is the pond)");
}
