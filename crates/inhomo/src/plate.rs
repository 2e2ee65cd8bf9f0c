//! The plate-oriented method (paper §3.1, eqns 37–39).
//!
//! The domain is covered by regions ("plates"), each with its own spectrum.
//! A sample's kernel is the membership-weighted blend of the plate
//! kernels; membership ramps linearly from 1 to 0 as the sample's signed
//! distance to the plate boundary crosses the transition strip
//! `[-T/2, +T/2]` — at a straight boundary between two adjoining plates
//! this reproduces exactly the linear transition functions of eqns 38–39.
//!
//! A layout computes once what [`Region::signed_distance`] recomputes for
//! every sample (a rectangle's centre and half-extents, a half-plane's
//! `‖(a, b)‖`, a sector's two edge normals). Rectangles, circles and
//! half-planes also settle a sample that lies clearly beyond either edge
//! of the strip without the signed distance: they return the exact 0 or 1
//! the clamp would give, by a test on quantities cheaper than the
//! distance (the axis distances, the squared radius, the unnormalised
//! residual). Each test keeps a margin that covers every rounding between
//! it and the signed distance, so memberships keep their bits.

use crate::generator::WeightMap;
use crate::region::Region;
use rrs_error::RrsError;
use rrs_spectrum::SpectrumModel;

/// One region with its surface statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plate {
    /// The geometric region.
    pub region: Region,
    /// The spectrum inside it.
    pub spectrum: SpectrumModel,
}

/// A plate-oriented layout: a list of plates, an optional background
/// spectrum filling everything no plate claims, and the transition width.
#[derive(Clone, Debug)]
pub struct PlateLayout {
    plates: Vec<Plate>,
    /// One per plate: its region prepared for the per-sample membership.
    shapes: Vec<Shape>,
    background: Option<SpectrumModel>,
    transition: f64,
}

/// Relative slack of the early-out margins: `2⁻⁴⁰`, over a hundred times
/// the relative error each margin has to cover (at most `5u + 2⁻⁴⁸`).
const EDGE_SLACK: f64 = 1.0 / (1u64 << 40) as f64;

/// Smallest strip half-width `T/2` whose early-outs are armed. From
/// there on `T/2` is exact and the squares the tests compare are normal,
/// so an underflowing square loses at most `2⁻¹⁰⁷⁵`, far below the slack.
const MIN_ARMED_HALF: f64 = 1e-150;

/// A plate's [`Region`] with the constants of its signed distance computed
/// once, and the thresholds of its early-outs (NaN where one is not armed:
/// every comparison with NaN is false).
///
/// The clamp `clamp(0.5 − fl(sd/T), 0, 1)` gives exactly 0 whenever the
/// computed signed distance `sd ≥ h = T/2` (then `fl(sd/T) ≥ 0.5`), and
/// exactly 1 whenever `sd ≤ −h`. Each early-out proves one of the two
/// from cheaper quantities; `u = 2⁻⁵³` is the unit roundoff and
/// `δ` = [`EDGE_SLACK`].
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// The signed distance forms the axis distances `dx = |x − cx| − hx`
    /// and `dy` first. If `dx ≤ near = −h` and `dy ≤ −h`, the outside term
    /// is `√0 = 0` and `sd = max(dx, dy) ≤ −h` exactly. If `dx ≥ far =
    /// fl(h·(1 + δ))` (or `dy`), the inside term is 0 and the outside term
    /// is at least `fl(√fl(dx²)) ≥ dx·(1 − u)² ≥ h·(1 + δ)·(1 − u)³ > h`.
    Rect { cx: f64, cy: f64, hx: f64, hy: f64, near: f64, far: f64 },
    /// `sd = fl(hypot(dx, dy) − r)`. Take `s = fl(dx² + dy²)`, within a
    /// factor `(1 ± u)²` of the exact `ρ²`, and `hypot` within `2⁻⁴⁸·ρ` of
    /// `ρ` (sixteen times the one-ulp bound of common libms). Then
    /// `s > outer2 = fl(fl(fl(r + h)·(1 + δ))²)` gives
    /// `hypot ≥ (r + h)·(1 + δ)·(1 − 5u − 2⁻⁴⁸) > r + h`, so `sd ≥ h`. An
    /// overflowing square only makes `s` and `ρ` larger still.
    /// `s < inner2 = fl(fl(fl(r − h)·(1 − δ))²)` gives `hypot < r − h`
    /// the same way, so `sd ≤ −h`. Armed for a finite `r ≥ 0`; the inner
    /// test only when `inner2` is normal and finite (never for `r ≤ h`,
    /// where no sample has membership 1).
    Circle { cx: f64, cy: f64, r: f64, inner2: f64, outer2: f64 },
    /// `sd = fl(e / norm)` with the residual `e = fl(a·x + b·y − c)`. If
    /// `e ≥ far = fl(fl(h·norm)·(1 + δ)) ≥ h·norm`, then `e / norm ≥ h`
    /// and so `sd ≥ h`; `e ≤ −far` gives `sd ≤ −h` likewise. Armed when
    /// `norm` and `fl(h·norm)` are normal and finite.
    HalfPlane { a: f64, b: f64, c: f64, norm: f64, far: f64 },
    /// The two edge normals `(−sin θ, cos θ)`; no early-out.
    Sector { cx: f64, cy: f64, r: f64, edge0: (f64, f64), edge1: (f64, f64) },
}

impl Shape {
    /// Prepares `region` for a strip of half-width `h = T/2`.
    fn new(region: &Region, h: f64) -> Self {
        let armed = h >= MIN_ARMED_HALF;
        let keep = |v: f64, ok: bool| if armed && ok { v } else { f64::NAN };
        match *region {
            Region::Rect { x0, y0, x1, y1 } => Shape::Rect {
                cx: 0.5 * (x0 + x1),
                cy: 0.5 * (y0 + y1),
                hx: 0.5 * (x1 - x0),
                hy: 0.5 * (y1 - y0),
                near: keep(-h, true),
                far: keep(h * (1.0 + EDGE_SLACK), true),
            },
            Region::Circle { cx, cy, r } => {
                let ok = r.is_finite() && r >= 0.0;
                let outer = (r + h) * (1.0 + EDGE_SLACK);
                let inner = (r - h) * (1.0 - EDGE_SLACK);
                let inner2 = inner * inner;
                let inner_ok = inner > 0.0 && inner2 >= f64::MIN_POSITIVE && inner2.is_finite();
                Shape::Circle {
                    cx,
                    cy,
                    r,
                    inner2: keep(inner2, ok && inner_ok),
                    outer2: keep(outer * outer, ok),
                }
            }
            Region::HalfPlane { a, b, c } => {
                let norm = a.hypot(b);
                let hn = h * norm;
                let ok = norm.is_normal() && hn.is_normal();
                Shape::HalfPlane { a, b, c, norm, far: keep(hn * (1.0 + EDGE_SLACK), ok) }
            }
            Region::Sector { cx, cy, r, theta0, theta1 } => {
                let normal = |theta: f64| {
                    let (s, c) = theta.sin_cos();
                    (-s, c)
                };
                Shape::Sector { cx, cy, r, edge0: normal(theta0), edge1: normal(theta1) }
            }
        }
    }

    /// The clamped linear ramp `clamp(0.5 − sd/T, 0, 1)` at `(x, y)`, with
    /// [`Region::signed_distance`]'s arithmetic on the prepared constants,
    /// or the 0 or 1 it gives where an early-out settles it.
    fn ramp(&self, x: f64, y: f64, transition: f64) -> f64 {
        let sd = match *self {
            Shape::Rect { cx, cy, hx, hy, near, far } => {
                let dx = (x - cx).abs() - hx;
                let dy = (y - cy).abs() - hy;
                if dx >= far || dy >= far {
                    return 0.0;
                }
                if dx <= near && dy <= near {
                    return 1.0;
                }
                let outside = (dx.max(0.0).powi(2) + dy.max(0.0).powi(2)).sqrt();
                let inside = dx.max(dy).min(0.0);
                outside + inside
            }
            Shape::Circle { cx, cy, r, inner2, outer2 } => {
                let (dx, dy) = (x - cx, y - cy);
                let s = dx * dx + dy * dy;
                if s > outer2 {
                    return 0.0;
                }
                if s < inner2 {
                    return 1.0;
                }
                dx.hypot(dy) - r
            }
            Shape::HalfPlane { a, b, c, norm, far } => {
                let e = a * x + b * y - c;
                if e >= far {
                    return 0.0;
                }
                if e <= -far {
                    return 1.0;
                }
                e / norm
            }
            Shape::Sector { cx, cy, r, edge0, edge1 } => {
                let px = x - cx;
                let py = y - cy;
                let d_arc = px.hypot(py) - r;
                let d0 = -(px * edge0.0 + py * edge0.1);
                let d1 = px * edge1.0 + py * edge1.1;
                d_arc.max(d0.max(d1))
            }
        };
        rrs_num::interp::clamp(0.5 - sd / transition, 0.0, 1.0)
    }
}

impl PlateLayout {
    /// Builds a layout. `transition` is the full width `T` of the blend
    /// strip straddling each plate boundary (use a small value, not zero,
    /// for sharp edges).
    ///
    /// # Panics
    /// Panics if no plates are given and there is no background, or if
    /// `transition` is not positive and finite. Fallible callers use
    /// [`PlateLayout::try_new`].
    pub fn new(plates: Vec<Plate>, background: Option<SpectrumModel>, transition: f64) -> Self {
        Self::try_new(plates, background, transition).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PlateLayout::new`].
    pub fn try_new(
        plates: Vec<Plate>,
        background: Option<SpectrumModel>,
        transition: f64,
    ) -> Result<Self, RrsError> {
        if plates.is_empty() && background.is_none() {
            return Err(RrsError::invalid_param(
                "plates",
                "a layout needs at least one plate or a background",
            ));
        }
        if !(transition.is_finite() && transition > 0.0) {
            return Err(RrsError::invalid_param(
                "transition",
                format!("transition width must be positive, got {transition}"),
            ));
        }
        let shapes = plates.iter().map(|p| Shape::new(&p.region, 0.5 * transition)).collect();
        Ok(Self { plates, shapes, background, transition })
    }

    /// The plates, in kernel-index order.
    pub fn plates(&self) -> &[Plate] {
        &self.plates
    }

    /// The background spectrum, if any; its kernel index is
    /// `plates().len()`.
    pub fn background(&self) -> Option<&SpectrumModel> {
        self.background.as_ref()
    }

    /// Transition strip width `T`.
    pub fn transition(&self) -> f64 {
        self.transition
    }

    /// Raw (unnormalised) membership of plate `i` at `(x, y)`:
    /// 1 deep inside, 0 beyond the strip, linear across it.
    fn membership(&self, i: usize, x: f64, y: f64) -> f64 {
        self.shapes[i].ramp(x, y, self.transition)
    }
}

impl WeightMap for PlateLayout {
    fn kernel_count(&self) -> usize {
        self.plates.len() + usize::from(self.background.is_some())
    }

    fn spectra(&self) -> Vec<SpectrumModel> {
        let mut v: Vec<SpectrumModel> = self.plates.iter().map(|p| p.spectrum).collect();
        if let Some(bg) = self.background {
            v.push(bg);
        }
        v
    }

    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let mut total = 0.0;
        for i in 0..self.plates.len() {
            let m = self.membership(i, x, y);
            if m > 0.0 {
                out.push((i, m));
                total += m;
            }
        }
        if let Some(_bg) = &self.background {
            // The background soaks up whatever membership the plates left.
            let bg = (1.0 - total).max(0.0);
            if bg > 0.0 {
                out.push((self.plates.len(), bg));
                total += bg;
            }
        }
        if out.is_empty() {
            // No plate within reach and no background: fall back to the
            // nearest plate so every sample has statistics.
            let nearest = (0..self.plates.len())
                .min_by(|&a, &b| {
                    let da = self.plates[a].region.signed_distance(x, y);
                    let db = self.plates[b].region.signed_distance(x, y);
                    da.partial_cmp(&db).expect("NaN distance")
                })
                .expect("at least one plate");
            out.push((nearest, 1.0));
            return;
        }
        if (total - 1.0).abs() > 1e-12 {
            for w in out.iter_mut() {
                w.1 /= total;
            }
        }
    }
}

/// Builds the four-quadrant layout of the paper's Figures 1–2: quadrant
/// `q` (1-based, counter-clockwise from the upper-right as in the paper)
/// of the `[0, nx] × [0, ny]` domain gets `spectra[q-1]`. `transition` is
/// the blend width across the internal boundaries.
pub fn quadrant_layout(
    nx: f64,
    ny: f64,
    spectra: [SpectrumModel; 4],
    transition: f64,
) -> PlateLayout {
    let hx = nx / 2.0;
    let hy = ny / 2.0;
    let plates = vec![
        // First quadrant: upper-right.
        Plate { region: Region::Rect { x0: hx, y0: hy, x1: nx, y1: ny }, spectrum: spectra[0] },
        // Second: upper-left.
        Plate { region: Region::Rect { x0: 0.0, y0: hy, x1: hx, y1: ny }, spectrum: spectra[1] },
        // Third: lower-left.
        Plate { region: Region::Rect { x0: 0.0, y0: 0.0, x1: hx, y1: hy }, spectrum: spectra[2] },
        // Fourth: lower-right.
        Plate { region: Region::Rect { x0: hx, y0: 0.0, x1: nx, y1: hy }, spectrum: spectra[3] },
    ];
    PlateLayout::new(plates, None, transition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::SurfaceParams;

    fn sm(h: f64, cl: f64) -> SpectrumModel {
        SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
    }

    fn quad() -> PlateLayout {
        quadrant_layout(
            100.0,
            100.0,
            [sm(1.0, 4.0), sm(1.5, 6.0), sm(2.0, 8.0), sm(1.5, 6.0)],
            10.0,
        )
    }

    #[test]
    fn pure_region_has_single_weight() {
        let l = quad();
        let mut w = Vec::new();
        l.weights_at(75.0, 75.0, &mut w); // deep in quadrant 1
        assert_eq!(w, vec![(0, 1.0)]);
        l.weights_at(25.0, 75.0, &mut w); // quadrant 2
        assert_eq!(w, vec![(1, 1.0)]);
        l.weights_at(25.0, 25.0, &mut w); // quadrant 3
        assert_eq!(w, vec![(2, 1.0)]);
        l.weights_at(75.0, 25.0, &mut w); // quadrant 4
        assert_eq!(w, vec![(3, 1.0)]);
    }

    #[test]
    fn transition_is_linear_and_normalised() {
        let l = quad();
        let mut w = Vec::new();
        // Crossing the vertical boundary x = 50 at y = 75 blends
        // quadrants 1 and 2; membership must be linear in x.
        for i in 0..=10 {
            let x = 45.0 + i as f64; // spans the strip [45, 55]
            l.weights_at(x, 75.0, &mut w);
            let total: f64 = w.iter().map(|&(_, v)| v).sum();
            assert!((total - 1.0).abs() < 1e-12, "weights must sum to 1");
            let w1 = w.iter().find(|&&(k, _)| k == 0).map_or(0.0, |&(_, v)| v);
            let expect = rrs_num::interp::unit_ramp(x, 45.0, 55.0);
            assert!((w1 - expect).abs() < 1e-9, "x={x}: {w1} vs {expect}");
        }
    }

    #[test]
    fn quadrant_meeting_point_blends_all_four() {
        let l = quad();
        let mut w = Vec::new();
        l.weights_at(50.0, 50.0, &mut w);
        assert_eq!(w.len(), 4);
        let total: f64 = w.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for &(_, v) in &w {
            assert!((v - 0.25).abs() < 1e-9, "centre should blend equally, got {w:?}");
        }
    }

    #[test]
    fn circle_with_background_covers_plane() {
        // The Figure 3 layout: a pond in a field.
        let pond = Plate {
            region: Region::Circle { cx: 0.0, cy: 0.0, r: 500.0 },
            spectrum: sm(0.2, 50.0),
        };
        let l = PlateLayout::new(vec![pond], Some(sm(1.0, 50.0)), 100.0);
        let mut w = Vec::new();
        // Deep inside the pond.
        l.weights_at(0.0, 0.0, &mut w);
        assert_eq!(w, vec![(0, 1.0)]);
        // Far outside: all background.
        l.weights_at(2000.0, 0.0, &mut w);
        assert_eq!(w, vec![(1, 1.0)]);
        // On the rim: an even blend.
        l.weights_at(500.0, 0.0, &mut w);
        let total: f64 = w.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(w.len(), 2);
        assert!((w[0].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_background_gap_falls_back_to_nearest() {
        let a = Plate {
            region: Region::Circle { cx: 0.0, cy: 0.0, r: 10.0 },
            spectrum: sm(1.0, 4.0),
        };
        let b = Plate {
            region: Region::Circle { cx: 100.0, cy: 0.0, r: 10.0 },
            spectrum: sm(2.0, 4.0),
        };
        let l = PlateLayout::new(vec![a, b], None, 4.0);
        let mut w = Vec::new();
        l.weights_at(30.0, 0.0, &mut w); // in the gap, nearer plate 0
        assert_eq!(w, vec![(0, 1.0)]);
        l.weights_at(70.0, 0.0, &mut w); // nearer plate 1
        assert_eq!(w, vec![(1, 1.0)]);
    }

    #[test]
    fn spectra_order_matches_kernel_indices() {
        let l = quad();
        let spectra = l.spectra();
        assert_eq!(spectra.len(), 4);
        assert_eq!(spectra[0], sm(1.0, 4.0));
        assert_eq!(spectra[2], sm(2.0, 8.0));
        assert_eq!(l.kernel_count(), 4);

        let with_bg = PlateLayout::new(
            vec![Plate {
                region: Region::Circle { cx: 0.0, cy: 0.0, r: 5.0 },
                spectrum: sm(1.0, 3.0),
            }],
            Some(sm(0.5, 2.0)),
            1.0,
        );
        assert_eq!(with_bg.kernel_count(), 2);
        assert_eq!(with_bg.spectra()[1], sm(0.5, 2.0));
    }

    #[test]
    #[should_panic(expected = "transition width must be positive")]
    fn zero_transition_rejected() {
        PlateLayout::new(vec![], Some(sm(1.0, 1.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one plate or a background")]
    fn empty_layout_rejected() {
        PlateLayout::new(vec![], None, 1.0);
    }
}
