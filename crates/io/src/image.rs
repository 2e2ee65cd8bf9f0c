//! PGM/PPM heightmap rendering.
//!
//! Binary PGM (P5) grayscale and PPM (P6) false-colour renders of a height
//! field, normalised to the field's own min/max. Rows are written top-down
//! with `y` increasing upward (image row 0 is the maximum `y`), matching
//! the mathematical orientation of the paper's figures.

use rrs_error::{ensure_all_finite, RrsError};
use rrs_grid::Grid2;
use std::io::{BufWriter, Write};

fn normalise(grid: &Grid2<f64>) -> (f64, f64) {
    let lo = grid.min();
    let hi = grid.max();
    // Negated comparison on purpose: also catches NaN bounds.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(hi > lo) {
        // Flat field: avoid division by zero, render mid-gray.
        (lo - 0.5, lo + 0.5)
    } else {
        (lo, hi)
    }
}

fn check_renderable(grid: &Grid2<f64>, context: &'static str) -> Result<(), RrsError> {
    if grid.is_empty() {
        return Err(RrsError::invalid_param("grid", "cannot render an empty grid"));
    }
    // A NaN/∞ height would silently clamp to an arbitrary pixel — reject
    // instead of rendering a lie.
    ensure_all_finite(context, grid.as_slice())
}

/// Writes an 8-bit binary PGM (P5) grayscale heightmap. Rejects empty
/// grids ([`RrsError::InvalidParam`]) and non-finite heights
/// ([`RrsError::NonFinite`]).
pub fn try_write_pgm<W: Write>(w: W, grid: &Grid2<f64>) -> Result<(), RrsError> {
    check_renderable(grid, "pgm heights")?;
    let mut w = BufWriter::new(w);
    let (lo, hi) = normalise(grid);
    write!(w, "P5\n{} {}\n255\n", grid.nx(), grid.ny())?;
    for iy in (0..grid.ny()).rev() {
        let bytes: Vec<u8> = grid
            .row(iy)
            .iter()
            .map(|&v| (255.0 * (v - lo) / (hi - lo)).round().clamp(0.0, 255.0) as u8)
            .collect();
        w.write_all(&bytes)?;
    }
    w.flush()?;
    Ok(())
}

/// A compact diverging-ish terrain ramp: deep blue → teal → green →
/// yellow → white, linear in normalised height.
fn terrain_color(t: f64) -> [u8; 3] {
    let t = t.clamp(0.0, 1.0);
    let stops: [(f64, [f64; 3]); 5] = [
        (0.00, [20.0, 44.0, 108.0]),
        (0.25, [28.0, 130.0, 140.0]),
        (0.50, [70.0, 160.0, 70.0]),
        (0.75, [220.0, 210.0, 90.0]),
        (1.00, [250.0, 250.0, 245.0]),
    ];
    let mut c = stops[stops.len() - 1].1;
    for win in stops.windows(2) {
        let (t0, c0) = win[0];
        let (t1, c1) = win[1];
        if t <= t1 {
            let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
            c = [
                c0[0] + f * (c1[0] - c0[0]),
                c0[1] + f * (c1[1] - c0[1]),
                c0[2] + f * (c1[2] - c0[2]),
            ];
            break;
        }
    }
    [c[0].round() as u8, c[1].round() as u8, c[2].round() as u8]
}

/// Writes an 8-bit binary PPM (P6) false-colour heightmap. Rejects empty
/// grids ([`RrsError::InvalidParam`]) and non-finite heights
/// ([`RrsError::NonFinite`]).
pub fn try_write_ppm<W: Write>(w: W, grid: &Grid2<f64>) -> Result<(), RrsError> {
    check_renderable(grid, "ppm heights")?;
    let mut w = BufWriter::new(w);
    let (lo, hi) = normalise(grid);
    write!(w, "P6\n{} {}\n255\n", grid.nx(), grid.ny())?;
    for iy in (0..grid.ny()).rev() {
        let mut bytes = Vec::with_capacity(grid.nx() * 3);
        for &v in grid.row(iy) {
            bytes.extend_from_slice(&terrain_color((v - lo) / (hi - lo)));
        }
        w.write_all(&bytes)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_header_and_size() {
        let g = Grid2::from_fn(4, 3, |x, y| (x + y) as f64);
        let mut buf = Vec::new();
        try_write_pgm(&mut buf, &g).unwrap();
        let header_end = buf.windows(4).position(|w| w == b"255\n").unwrap() + 4;
        let header = std::str::from_utf8(&buf[..header_end]).unwrap();
        assert!(header.starts_with("P5\n4 3\n255\n"));
        assert_eq!(buf.len() - header_end, 12);
    }

    #[test]
    fn pgm_spans_full_range() {
        let g = Grid2::from_vec(2, 1, vec![0.0, 10.0]);
        let mut buf = Vec::new();
        try_write_pgm(&mut buf, &g).unwrap();
        let pixels = &buf[buf.len() - 2..];
        assert_eq!(pixels, &[0u8, 255u8]);
    }

    #[test]
    fn pgm_rows_are_top_down() {
        // Higher y must appear earlier in the file.
        let g = Grid2::from_vec(1, 2, vec![0.0, 10.0]); // y=0 low, y=1 high
        let mut buf = Vec::new();
        try_write_pgm(&mut buf, &g).unwrap();
        let pixels = &buf[buf.len() - 2..];
        assert_eq!(pixels, &[255u8, 0u8]);
    }

    #[test]
    fn flat_surface_renders_without_nan() {
        let g = Grid2::filled(8, 8, 3.0);
        let mut buf = Vec::new();
        try_write_pgm(&mut buf, &g).unwrap();
        let pixels = &buf[buf.len() - 64..];
        assert!(pixels.iter().all(|&p| p == pixels[0]));
    }

    #[test]
    fn ppm_has_three_channels() {
        let g = Grid2::from_fn(5, 5, |x, y| (x * y) as f64);
        let mut buf = Vec::new();
        try_write_ppm(&mut buf, &g).unwrap();
        let header_end = buf.windows(4).position(|w| w == b"255\n").unwrap() + 4;
        assert!(std::str::from_utf8(&buf[..header_end]).unwrap().starts_with("P6\n5 5\n"));
        assert_eq!(buf.len() - header_end, 75);
    }

    #[test]
    fn terrain_ramp_endpoints() {
        assert_eq!(terrain_color(0.0), [20, 44, 108]);
        assert_eq!(terrain_color(1.0), [250, 250, 245]);
        // Monotone brightness at the endpoints.
        let lo: u32 = terrain_color(0.0).iter().map(|&c| c as u32).sum();
        let hi: u32 = terrain_color(1.0).iter().map(|&c| c as u32).sum();
        assert!(hi > lo);
        // Out-of-range inputs clamp.
        assert_eq!(terrain_color(-5.0), terrain_color(0.0));
        assert_eq!(terrain_color(7.0), terrain_color(1.0));
    }

    #[test]
    fn non_finite_heights_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let g = Grid2::from_vec(2, 1, vec![0.0, bad]);
            let e = try_write_pgm(Vec::new(), &g).unwrap_err();
            assert_eq!(e.kind(), rrs_error::ErrorKind::NonFinite, "{bad}: {e}");
            assert!(e.to_string().contains("index 1"), "{e}");
            let e = try_write_ppm(Vec::new(), &g).unwrap_err();
            assert_eq!(e.kind(), rrs_error::ErrorKind::NonFinite, "{bad}: {e}");
        }
        // An empty grid has no range to normalise: rejected, not rendered.
        let empty = Grid2::zeros(0, 0);
        let e = try_write_pgm(Vec::new(), &empty).unwrap_err();
        assert_eq!(e.kind(), rrs_error::ErrorKind::InvalidParam, "{e}");
        let e = try_write_ppm(Vec::new(), &empty).unwrap_err();
        assert_eq!(e.kind(), rrs_error::ErrorKind::InvalidParam, "{e}");
    }
}
