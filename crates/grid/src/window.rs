//! Rectangular window requests on the unbounded ℤ² surface lattice.
//!
//! Every generator in the workspace answers the same question — "give me
//! the samples in `[x0, x0+nx) × [y0, y0+ny)` of an unbounded surface" —
//! and historically took the four numbers positionally. [`Window`] names
//! that request once: `generate(&noise, Window::try_new(x0, y0, nx, ny)?)`
//! reads unambiguously, validation happens in one place, and windows can
//! be stored, compared, split and shifted as values.

use rrs_error::RrsError;

/// The half-open lattice window `[x0, x0+nx) × [y0, y0+ny)`.
///
/// Construct through [`Window::try_new`] (or the panicking [`Window::new`]
/// / origin-anchored [`Window::sized`]); a constructed window is always
/// non-empty and its extents never overflow the `i64` lattice, so
/// consumers can do index arithmetic without re-checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Window {
    /// Minimum (leftmost) `x` lattice index.
    pub x0: i64,
    /// Minimum (bottom) `y` lattice index.
    pub y0: i64,
    /// Extent along `x`, in samples (always positive).
    pub nx: usize,
    /// Extent along `y`, in samples (always positive).
    pub ny: usize,
}

impl Window {
    /// Validates and builds a window request.
    ///
    /// Rejected with [`RrsError::InvalidParam`]:
    /// * empty extents (`nx == 0` or `ny == 0`);
    /// * extents or far edges that overflow the `i64` lattice
    ///   (`x0 + nx` / `y0 + ny` must be representable);
    /// * a total sample count `nx·ny` that overflows `usize` (no
    ///   allocation could back it).
    pub fn try_new(x0: i64, y0: i64, nx: usize, ny: usize) -> Result<Self, RrsError> {
        if nx == 0 || ny == 0 {
            return Err(RrsError::invalid_param(
                "window",
                format!("window must be non-empty, got {nx}x{ny}"),
            ));
        }
        let fits = |origin: i64, extent: usize| {
            i64::try_from(extent)
                .ok()
                .and_then(|e| origin.checked_add(e))
                .is_some()
        };
        if !fits(x0, nx) || !fits(y0, ny) {
            return Err(RrsError::invalid_param(
                "window",
                format!(
                    "window [{x0}, {x0}+{nx}) x [{y0}, {y0}+{ny}) overflows the i64 lattice"
                ),
            ));
        }
        if nx.checked_mul(ny).is_none() {
            return Err(RrsError::invalid_param(
                "window",
                format!("window sample count {nx}*{ny} overflows usize"),
            ));
        }
        Ok(Self { x0, y0, nx, ny })
    }

    /// Panicking [`Window::try_new`], for call sites with known-good
    /// extents.
    ///
    /// # Panics
    /// Panics on any input [`Window::try_new`] rejects.
    pub fn new(x0: i64, y0: i64, nx: usize, ny: usize) -> Self {
        Self::try_new(x0, y0, nx, ny).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The `nx × ny` window anchored at the origin.
    ///
    /// # Panics
    /// Panics if the extents are empty or overflowing.
    pub fn sized(nx: usize, ny: usize) -> Self {
        Self::new(0, 0, nx, ny)
    }

    /// Extent as `(nx, ny)` — the shape of the resulting grid.
    pub fn shape(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Total number of samples requested.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Windows are never empty by construction; kept for API symmetry
    /// with collection types.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// One-past-the-rightmost `x` index.
    pub fn x_end(&self) -> i64 {
        self.x0 + self.nx as i64
    }

    /// One-past-the-topmost `y` index.
    pub fn y_end(&self) -> i64 {
        self.y0 + self.ny as i64
    }

    /// True when the lattice point `(x, y)` lies inside the window.
    pub fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x_end() && y >= self.y0 && y < self.y_end()
    }

    /// The same-shape window translated by `(dx, dy)`.
    ///
    /// # Panics
    /// Panics if the translated window leaves the `i64` lattice.
    pub fn translated(&self, dx: i64, dy: i64) -> Self {
        let x0 = self.x0.checked_add(dx).expect("window x translation overflows i64");
        let y0 = self.y0.checked_add(dy).expect("window y translation overflows i64");
        Self::new(x0, y0, self.nx, self.ny)
    }
}

impl std::fmt::Display for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}) x [{}, {})", self.x0, self.x_end(), self.y0, self.y_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_error::ErrorKind;

    #[test]
    fn accepts_ordinary_windows() {
        let w = Window::try_new(-5, 7, 32, 16).unwrap();
        assert_eq!(w.shape(), (32, 16));
        assert_eq!(w.len(), 512);
        assert_eq!((w.x_end(), w.y_end()), (27, 23));
        assert!(w.contains(-5, 7));
        assert!(w.contains(26, 22));
        assert!(!w.contains(27, 7));
        assert!(!w.contains(-6, 7));
    }

    #[test]
    fn rejects_empty_extents() {
        for (nx, ny) in [(0usize, 4usize), (4, 0), (0, 0)] {
            let err = Window::try_new(0, 0, nx, ny).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidParam);
            assert!(err.to_string().contains("non-empty"), "{err}");
        }
    }

    #[test]
    fn rejects_lattice_overflow() {
        let err = Window::try_new(i64::MAX - 3, 0, 8, 8).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidParam);
        assert!(err.to_string().contains("overflows"), "{err}");
        assert!(Window::try_new(0, i64::MAX, 1, 1).is_err());
        // Extents too large for i64 at all.
        if usize::BITS >= 64 {
            assert!(Window::try_new(0, 0, usize::MAX, 1).is_err());
        }
        // The far edge may sit exactly at i64::MAX.
        assert!(Window::try_new(i64::MAX - 8, i64::MAX - 8, 8, 8).is_ok());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn panicking_constructor_rejects_empty() {
        Window::new(0, 0, 0, 1);
    }

    #[test]
    fn sized_anchors_at_origin() {
        let w = Window::sized(10, 20);
        assert_eq!(w, Window::new(0, 0, 10, 20));
        assert!(!w.is_empty());
    }

    #[test]
    fn translation_shifts_origin_only() {
        let w = Window::new(3, -4, 5, 6).translated(-10, 2);
        assert_eq!(w, Window::new(-7, -2, 5, 6));
    }

    #[test]
    fn display_shows_half_open_ranges() {
        assert_eq!(Window::new(-2, 1, 4, 2).to_string(), "[-2, 2) x [1, 3)");
    }
}
