//! The core dense 2-D array type.

use core::fmt;
use rrs_error::RrsError;

/// A dense, row-major 2-D array with `x` as the fast (contiguous) axis.
#[derive(Clone, PartialEq)]
pub struct Grid2<T> {
    nx: usize,
    ny: usize,
    data: Vec<T>,
}

impl<T> Grid2<T> {
    /// Validated construction from raw parts: `data.len()` must equal
    /// `nx · ny` (which itself must not overflow `usize`).
    pub fn try_from_vec(nx: usize, ny: usize, data: Vec<T>) -> Result<Self, RrsError> {
        let n = nx.checked_mul(ny).ok_or_else(|| {
            RrsError::invalid_param("nx*ny", format!("grid shape {nx}x{ny} overflows usize"))
        })?;
        if data.len() != n {
            return Err(RrsError::shape_mismatch(
                "grid data length must be nx*ny",
                n,
                data.len(),
            ));
        }
        Ok(Self { nx, ny, data })
    }

    /// Creates a grid from raw parts.
    ///
    /// # Panics
    /// Panics if `data.len() != nx * ny`. Fallible callers use
    /// [`Grid2::try_from_vec`].
    pub fn from_vec(nx: usize, ny: usize, data: Vec<T>) -> Self {
        Self::try_from_vec(nx, ny, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a grid by evaluating `f(ix, iy)` at every point, row by row.
    pub fn from_fn<F: FnMut(usize, usize) -> T>(nx: usize, ny: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                data.push(f(ix, iy));
            }
        }
        Self { nx, ny, data }
    }

    /// Number of samples along `x` (the fast axis).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of samples along `y` (the slow axis).
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of samples.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the grid holds no samples.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Shape as `(nx, ny)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Flat row-major index of `(ix, iy)`.
    #[inline(always)]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny, "index ({ix},{iy}) out of bounds");
        iy * self.nx + ix
    }

    /// Borrow of the sample at `(ix, iy)`.
    #[inline(always)]
    pub fn get(&self, ix: usize, iy: usize) -> &T {
        &self.data[self.idx(ix, iy)]
    }

    /// Mutable borrow of the sample at `(ix, iy)`.
    #[inline(always)]
    pub fn get_mut(&mut self, ix: usize, iy: usize) -> &mut T {
        let i = self.idx(ix, iy);
        &mut self.data[i]
    }

    /// Writes `v` at `(ix, iy)`.
    #[inline(always)]
    pub fn set(&mut self, ix: usize, iy: usize, v: T) {
        let i = self.idx(ix, iy);
        self.data[i] = v;
    }

    /// The whole storage as a flat row-major slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole storage as a flat mutable slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the grid, returning its storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Row `iy` as a contiguous slice.
    #[inline]
    pub fn row(&self, iy: usize) -> &[T] {
        assert!(iy < self.ny, "row {iy} out of bounds (ny={})", self.ny);
        &self.data[iy * self.nx..(iy + 1) * self.nx]
    }

    /// Iterates rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.nx.max(1))
    }

    /// Applies `f` to every element, producing a new grid of the same shape.
    pub fn map<U, F: FnMut(&T) -> U>(&self, f: F) -> Grid2<U> {
        Grid2 { nx: self.nx, ny: self.ny, data: self.data.iter().map(f).collect() }
    }
}

impl<T: Clone> Grid2<T> {
    /// Creates a grid filled with copies of `v`.
    pub fn filled(nx: usize, ny: usize, v: T) -> Self {
        Self { nx, ny, data: vec![v; nx * ny] }
    }

    /// Fallible [`Grid2::window`]: rejects (with overflow-safe arithmetic)
    /// any window that does not lie fully inside the grid.
    pub fn try_window(&self, x0: usize, y0: usize, w: usize, h: usize) -> Result<Grid2<T>, RrsError> {
        let fits = x0.checked_add(w).is_some_and(|xe| xe <= self.nx)
            && y0.checked_add(h).is_some_and(|ye| ye <= self.ny);
        if !fits {
            return Err(RrsError::shape_mismatch(
                "window out of bounds",
                format!("window within {}x{}", self.nx, self.ny),
                format!("origin ({x0},{y0}) shape {w}x{h}"),
            ));
        }
        let mut data = Vec::with_capacity(w * h);
        for iy in y0..y0 + h {
            data.extend_from_slice(&self.data[iy * self.nx + x0..iy * self.nx + x0 + w]);
        }
        Ok(Grid2 { nx: w, ny: h, data })
    }

    /// Copies out the rectangular window starting at `(x0, y0)` with shape
    /// `(w, h)`.
    ///
    /// # Panics
    /// Panics if the window exceeds the grid bounds. Fallible callers use
    /// [`Grid2::try_window`].
    pub fn window(&self, x0: usize, y0: usize, w: usize, h: usize) -> Grid2<T> {
        self.try_window(x0, y0, w, h).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Grid2::blit`]: rejects a source rectangle that does not
    /// fit inside this grid at origin `(x0, y0)`.
    pub fn try_blit(&mut self, x0: usize, y0: usize, src: &Grid2<T>) -> Result<(), RrsError> {
        let fits = x0.checked_add(src.nx).is_some_and(|xe| xe <= self.nx)
            && y0.checked_add(src.ny).is_some_and(|ye| ye <= self.ny);
        if !fits {
            return Err(RrsError::shape_mismatch(
                "blit target out of bounds",
                format!("source within {}x{}", self.nx, self.ny),
                format!("origin ({x0},{y0}) shape {}x{}", src.nx, src.ny),
            ));
        }
        for iy in 0..src.ny {
            let dst_off = (y0 + iy) * self.nx + x0;
            self.data[dst_off..dst_off + src.nx].clone_from_slice(src.row(iy));
        }
        Ok(())
    }

    /// Writes `src` into this grid with its origin at `(x0, y0)`.
    ///
    /// # Panics
    /// Panics if `src` does not fit. Fallible callers use
    /// [`Grid2::try_blit`].
    pub fn blit(&mut self, x0: usize, y0: usize, src: &Grid2<T>) {
        self.try_blit(x0, y0, src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns the transposed grid (x and y axes exchanged).
    pub fn transpose(&self) -> Grid2<T> {
        Grid2::from_fn(self.ny, self.nx, |ix, iy| self.get(iy, ix).clone())
    }
}

impl Grid2<f64> {
    /// A zero-filled height field.
    pub fn zeros(nx: usize, ny: usize) -> Self {
        Self::filled(nx, ny, 0.0)
    }

    /// Periodic (wrap-around) access; negative offsets allowed. The DFT
    /// framework treats surfaces as periodic, so the convolution method
    /// reads its noise field this way.
    #[inline]
    pub fn get_periodic(&self, ix: isize, iy: isize) -> f64 {
        let x = ix.rem_euclid(self.nx as isize) as usize;
        let y = iy.rem_euclid(self.ny as isize) as usize;
        self.data[y * self.nx + x]
    }

    /// Arithmetic mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        rrs_num::kahan::sum(&self.data) / self.data.len() as f64
    }

    /// Population variance of all samples.
    pub fn variance(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let mut s = rrs_num::KahanSum::new();
        for &v in &self.data {
            s.add((v - m) * (v - m));
        }
        s.value() / self.data.len() as f64
    }

    /// Population standard deviation — the `h` of a generated surface.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample (NaN-free input assumed).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample (NaN-free input assumed).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Fallible [`Grid2::add_assign`]: the two grids must share a shape.
    pub fn try_add_assign(&mut self, other: &Grid2<f64>) -> Result<(), RrsError> {
        if self.shape() != other.shape() {
            return Err(RrsError::shape_mismatch(
                "shape mismatch",
                format!("{}x{}", self.nx, self.ny),
                format!("{}x{}", other.nx, other.ny),
            ));
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Adds `other` element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch. Fallible callers use
    /// [`Grid2::try_add_assign`].
    pub fn add_assign(&mut self, other: &Grid2<f64>) {
        self.try_add_assign(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Scales all samples by `k`.
    pub fn scale(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Grid2<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid2({}x{})", self.nx, self.ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let g = Grid2::from_fn(4, 3, |x, y| (x + 10 * y) as i32);
        assert_eq!(g.shape(), (4, 3));
        assert_eq!(*g.get(0, 0), 0);
        assert_eq!(*g.get(3, 2), 23);
        assert_eq!(g.row(1), &[10, 11, 12, 13]);
    }

    #[test]
    #[should_panic(expected = "nx*ny")]
    fn from_vec_wrong_length_panics() {
        Grid2::from_vec(2, 2, vec![1, 2, 3]);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut g = Grid2::zeros(5, 5);
        g.set(2, 3, 7.5);
        assert_eq!(*g.get(2, 3), 7.5);
        *g.get_mut(2, 3) += 0.5;
        assert_eq!(*g.get(2, 3), 8.0);
    }

    #[test]
    fn rows_iterate_in_order() {
        let g = Grid2::from_fn(2, 3, |x, y| y * 2 + x);
        let rows: Vec<&[usize]> = g.rows().collect();
        assert_eq!(rows, vec![&[0, 1][..], &[2, 3][..], &[4, 5][..]]);
    }

    #[test]
    fn map_preserves_shape() {
        let g = Grid2::from_fn(3, 4, |x, y| (x + y) as f64);
        let m = g.map(|&v| v * 2.0);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(*m.get(2, 3), 10.0);
    }

    #[test]
    fn window_and_blit_roundtrip() {
        let g = Grid2::from_fn(8, 8, |x, y| (x * 8 + y) as f64);
        let w = g.window(2, 3, 4, 2);
        assert_eq!(w.shape(), (4, 2));
        assert_eq!(*w.get(0, 0), *g.get(2, 3));
        assert_eq!(*w.get(3, 1), *g.get(5, 4));

        let mut h = Grid2::zeros(8, 8);
        h.blit(2, 3, &w);
        assert_eq!(*h.get(2, 3), *g.get(2, 3));
        assert_eq!(*h.get(5, 4), *g.get(5, 4));
        assert_eq!(*h.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "window out of bounds")]
    fn window_out_of_bounds_panics() {
        Grid2::zeros(4, 4).window(2, 2, 4, 1);
    }

    #[test]
    fn transpose_involution() {
        let g = Grid2::from_fn(5, 3, |x, y| (x * 31 + y * 7) as i64);
        let t = g.transpose();
        assert_eq!(t.shape(), (3, 5));
        assert_eq!(*t.get(1, 4), *g.get(4, 1));
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn periodic_access_wraps() {
        let g = Grid2::from_fn(4, 4, |x, y| (x + 10 * y) as f64);
        assert_eq!(g.get_periodic(-1, 0), *g.get(3, 0));
        assert_eq!(g.get_periodic(4, 1), *g.get(0, 1));
        assert_eq!(g.get_periodic(-5, -5), *g.get(3, 3));
        assert_eq!(g.get_periodic(2, 2), *g.get(2, 2));
    }

    #[test]
    fn moments() {
        let g = Grid2::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.mean(), 2.5);
        assert_eq!(g.variance(), 1.25);
        assert_eq!(g.std_dev(), 1.25f64.sqrt());
        assert_eq!(g.min(), 1.0);
        assert_eq!(g.max(), 4.0);
    }

    #[test]
    fn empty_grid_moments_are_zero() {
        let g = Grid2::zeros(0, 0);
        assert!(g.is_empty());
        assert_eq!(g.mean(), 0.0);
        assert_eq!(g.variance(), 0.0);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Grid2::filled(2, 2, 1.0);
        let b = Grid2::filled(2, 2, 2.0);
        a.add_assign(&b);
        a.scale(0.5);
        assert!(a.as_slice().iter().all(|&v| v == 1.5));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_shape_mismatch_panics() {
        Grid2::zeros(2, 2).add_assign(&Grid2::zeros(3, 2));
    }
}
