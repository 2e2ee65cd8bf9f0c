//! CSV export/import of height fields.

use rrs_error::{ensure_all_finite, RrsError};
use rrs_grid::Grid2;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

/// Writes the surface as a plain matrix CSV: one row per `y`, columns are
/// `x`, full `f64` precision. A NaN/∞ height is a generation bug, not a
/// number a downstream CSV consumer should discover — rejected as
/// [`RrsError::NonFinite`].
pub fn try_write_matrix_csv<W: Write>(w: W, grid: &Grid2<f64>) -> Result<(), RrsError> {
    ensure_all_finite("csv heights", grid.as_slice())?;
    let mut w = BufWriter::new(w);
    for iy in 0..grid.ny() {
        let row = grid.row(iy);
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{v:?}")?; // Debug float formatting round-trips exactly
        }
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a matrix CSV produced by [`try_write_matrix_csv`] (or any rectangular
/// comma-separated block of numbers).
pub fn read_matrix_csv<R: Read>(r: R) -> io::Result<Grid2<f64>> {
    let reader = BufReader::new(r);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let row: Result<Vec<f64>, _> =
            trimmed.split(',').map(|tok| tok.trim().parse::<f64>()).collect();
        let row = row.map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {e}", lineno + 1))
        })?;
        if let Some(first) = rows.first() {
            if first.len() != row.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("ragged CSV: line {} has {} fields", lineno + 1, row.len()),
                ));
            }
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty CSV"));
    }
    let nx = rows[0].len();
    let ny = rows.len();
    let mut data = Vec::with_capacity(nx * ny);
    for row in rows {
        data.extend(row);
    }
    Ok(Grid2::from_vec(nx, ny, data))
}

/// Writes the surface in long `x,y,height` format with a header row —
/// convenient for dataframe tooling. Non-finite heights are rejected as
/// [`RrsError::NonFinite`].
pub fn try_write_xyz_csv<W: Write>(w: W, grid: &Grid2<f64>) -> Result<(), RrsError> {
    ensure_all_finite("csv heights", grid.as_slice())?;
    let mut w = BufWriter::new(w);
    w.write_all(b"x,y,height\n")?;
    for iy in 0..grid.ny() {
        for ix in 0..grid.nx() {
            writeln!(w, "{ix},{iy},{:?}", *grid.get(ix, iy))?;
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_round_trip_is_exact() {
        let g = Grid2::from_fn(5, 3, |x, y| (x as f64 + 0.1) * (y as f64 - 0.7) / 3.0);
        let mut buf = Vec::new();
        try_write_matrix_csv(&mut buf, &g).unwrap();
        let back = read_matrix_csv(buf.as_slice()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn extreme_values_round_trip() {
        let g = Grid2::from_vec(2, 2, vec![f64::MIN_POSITIVE, 1e308, -1e-300, 0.0]);
        let mut buf = Vec::new();
        try_write_matrix_csv(&mut buf, &g).unwrap();
        assert_eq!(read_matrix_csv(buf.as_slice()).unwrap(), g);
    }

    #[test]
    fn xyz_format_shape() {
        let g = Grid2::from_fn(2, 2, |x, y| (x + y) as f64);
        let mut buf = Vec::new();
        try_write_xyz_csv(&mut buf, &g).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "x,y,height");
        assert_eq!(lines[1], "0,0,0.0");
        assert_eq!(lines[4], "1,1,2.0");
    }

    #[test]
    fn ragged_csv_rejected() {
        let err = read_matrix_csv("1,2,3\n4,5\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn garbage_rejected_with_line_number() {
        let err = read_matrix_csv("1,2\n3,oops\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(read_matrix_csv("".as_bytes()).is_err());
        assert!(read_matrix_csv("\n\n".as_bytes()).is_err());
    }

    #[test]
    fn blank_lines_skipped() {
        let g = read_matrix_csv("1,2\n\n3,4\n".as_bytes()).unwrap();
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(*g.get(0, 1), 3.0);
    }

    #[test]
    fn non_finite_heights_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let g = Grid2::from_vec(2, 1, vec![bad, 1.0]);
            let e = try_write_matrix_csv(Vec::new(), &g).unwrap_err();
            assert_eq!(e.kind(), rrs_error::ErrorKind::NonFinite, "{bad}: {e}");
            assert!(e.to_string().contains("index 0"), "{e}");
            let e = try_write_xyz_csv(Vec::new(), &g).unwrap_err();
            assert_eq!(e.kind(), rrs_error::ErrorKind::NonFinite, "{bad}: {e}");
        }
    }
}
