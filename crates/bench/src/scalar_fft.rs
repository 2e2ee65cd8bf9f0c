//! The 2-D FFT as [`Fft2d`](rrs_fft::Fft2d) computed it before its passes
//! ran on lanes: one row, then one column, at a time through the public
//! [`Fft::process`]. Gates time it as the reference the batched transforms
//! are measured against; its bits equal `Fft2d`'s.

use rrs_fft::{Direction, Fft};
use rrs_num::Complex64;

/// A serial row–column transform of a row-major `nx × ny` buffer.
pub struct ScalarFft2d {
    nx: usize,
    ny: usize,
    rows: Fft,
    cols: Fft,
}

impl ScalarFft2d {
    /// Plans the two 1-D transforms.
    pub fn new(nx: usize, ny: usize) -> Self {
        Self { nx, ny, rows: Fft::new(nx), cols: Fft::new(ny) }
    }

    /// Transforms `buf` in place with `Fft2d`'s normalisation: each 1-D
    /// inverse's `1/n` is undone with `·n`, and `1/(nx·ny)` is applied once
    /// at the end.
    ///
    /// # Panics
    /// Panics if `buf.len() != nx * ny`.
    pub fn process(&self, buf: &mut [Complex64], dir: Direction) {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(buf.len(), nx * ny, "buffer shape mismatch");
        let unnormalised = |fft: &Fft, seq: &mut [Complex64]| {
            fft.process(seq, dir);
            if dir == Direction::Inverse {
                let n = seq.len() as f64;
                seq.iter_mut().for_each(|z| *z = z.scale(n));
            }
        };
        buf.chunks_exact_mut(nx).for_each(|row| unnormalised(&self.rows, row));
        let mut col = vec![Complex64::ZERO; ny];
        for cx in 0..nx {
            for (iy, z) in col.iter_mut().enumerate() {
                *z = buf[iy * nx + cx];
            }
            unnormalised(&self.cols, &mut col);
            for (iy, z) in col.iter().enumerate() {
                buf[iy * nx + cx] = *z;
            }
        }
        if dir == Direction::Inverse {
            let k = 1.0 / (nx * ny) as f64;
            buf.iter_mut().for_each(|z| *z = z.scale(k));
        }
    }
}
