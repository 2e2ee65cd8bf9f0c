//! Cross-crate integration: generated surfaces survive the I/O layer.

use rrs::prelude::*;

fn surface() -> rrs::grid::Grid2<f64> {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 6.0));
    ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_context(GenContext::new().with_workers(1))
        .generate(&NoiseField::new(3), Window::new(0, 0, 96, 64))
}

#[test]
fn snapshot_round_trip_preserves_statistics_exactly() {
    let f = surface();
    let mut buf = Vec::new();
    rrs::io::try_write_snapshot(&mut buf, &f).unwrap();
    let back = rrs::io::try_read_snapshot(buf.as_slice()).unwrap();
    assert_eq!(back, f, "snapshots are bit-exact");
    assert_eq!(back.std_dev(), f.std_dev());
}

#[test]
fn csv_round_trip_preserves_statistics_exactly() {
    let f = surface();
    let mut buf = Vec::new();
    rrs::io::try_write_matrix_csv(&mut buf, &f).unwrap();
    let back = rrs::io::read_matrix_csv(buf.as_slice()).unwrap();
    assert_eq!(back, f, "debug-formatted floats round-trip exactly");
}

#[test]
fn renders_have_correct_sizes() {
    let f = surface();
    let mut pgm = Vec::new();
    rrs::io::try_write_pgm(&mut pgm, &f).unwrap();
    assert!(pgm.len() > 96 * 64, "one byte per sample plus header");
    let mut ppm = Vec::new();
    rrs::io::try_write_ppm(&mut ppm, &f).unwrap();
    assert!(ppm.len() > 3 * 96 * 64);
    let mut dat = Vec::new();
    rrs::io::write_gnuplot_matrix(&mut dat, &f, "integration test").unwrap();
    let text = String::from_utf8(dat).unwrap();
    assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 64);
}

#[test]
fn validation_works_on_reloaded_surface() {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 6.0));
    let f = surface();
    let mut buf = Vec::new();
    rrs::io::try_write_snapshot(&mut buf, &f).unwrap();
    let back = rrs::io::try_read_snapshot(buf.as_slice()).unwrap();
    let r = validate_region(&back, &s, 0, 0, 96, 64);
    assert!(r.h_rel_error() < 0.35, "reloaded surface h_hat {}", r.h_measured);
}
