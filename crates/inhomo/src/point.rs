//! The point-oriented method (paper §3.2, eqns 40–46).
//!
//! `M` representative points each carry a spectrum. For a sample `n`:
//!
//! 1. find the nearest representative point `m*` (eqn 40/41);
//! 2. for every other point `m`, compute `τ(n, n_m, n_m*)` — the distance
//!    from `n` to the perpendicular bisector of the segment
//!    `[n_m, n_m*]` (eqn 42); the point *participates* when `τ ≤ T`,
//!    `T` being half the transition width (eqn 41);
//! 3. participating points get weights falling linearly in `τ`
//!    (eqns 43–44), the nearest point absorbs the remainder (eqn 45), and
//!    the sample's kernel is the weighted blend (eqn 46).
//!
//! The published equations' index tables are OCR-damaged; the
//! reconstruction here fixes the two limits they must satisfy: on the
//! bisector (`τ = 0`) a participating pair blends 50/50, and at `τ = T`
//! the neighbour's influence vanishes, matching the plate-oriented linear
//! strip. With several simultaneous neighbours the remainder rule keeps
//! `Σ g = 1` with the nearest point always weighted at least `1/2`.
//!
//! A lookup computes each point's squared distance once, and each
//! neighbour's `τ` at most once, into a stack array the two passes of
//! eqns 43–45 share. A neighbour whose squared-distance gap exceeds a
//! precomputed bound (`reach`, see [`PointLayout`]) is skipped without
//! dividing: the division could only have given `τ > T`. So most samples
//! of a Voronoi cell take no division at all, and every weight keeps the
//! bits the plain two-pass formula gives.

use crate::generator::WeightMap;
use rrs_error::RrsError;
use rrs_spectrum::SpectrumModel;

/// A representative point with its spectrum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepresentativePoint {
    /// Position x.
    pub x: f64,
    /// Position y.
    pub y: f64,
    /// The spectrum this point represents.
    pub spectrum: SpectrumModel,
}

/// A point-oriented layout: representative points plus the transition
/// half-width `T`.
#[derive(Clone, Debug)]
pub struct PointLayout {
    points: Vec<RepresentativePoint>,
    half_width: f64,
    /// `sep[s·M + m]`: the separation `|n_m − n_s|` eqn (42) divides by,
    /// precomputed for every ordered pair (`M²` entries).
    sep: Vec<f64>,
    /// `reach[s·M + m]`: a squared-distance gap past which `m` cannot
    /// take part when `s` is nearest, or `∞` where no such bound is
    /// proven.
    ///
    /// With `S = 2·sep[s·M + m]` and `d = fl(d_m − d_s)`, eqn (42)
    /// computes `τ = fl(d / S)`. `reach` is `fl(fl(T·S)·c)` with
    /// `c = 1 + 2⁻⁵⁰`, kept only when `T` and `fl(T·S)` are normal. Then
    /// each rounding loses at most a factor `1 − 2⁻⁵³` (or `fl(T·S)`
    /// rounded up), so `reach ≥ T·S·c·(1 − 2⁻⁵³)² > T·S·(1 + 2⁻⁵¹)`, or
    /// `reach` overflowed to `∞`. So `d > reach` gives, in exact
    /// arithmetic, `d / S > T·(1 + 2⁻⁵¹) ≥ T + 2·ulp(T)`, which rounding to
    /// nearest cannot bring down to `T`: `τ > T`, the result the skipped
    /// division would have given. Elsewhere `reach` is `∞`, which
    /// `d > reach` never passes (nor does a NaN `d`), so those neighbours
    /// always divide.
    reach: Vec<f64>,
}

/// Layouts with at most this many points keep the per-sample working
/// array (squared distances, then `τ`) on the stack.
const STACK_POINTS: usize = 32;

/// `c − 1` of [`PointLayout`]'s `reach` bound.
const REACH_SLACK: f64 = 1.0 / (1u64 << 50) as f64;

impl PointLayout {
    /// Builds a layout.
    ///
    /// # Panics
    /// Panics if no points are given, if two points coincide, or if the
    /// half-width `T` is not positive and finite. Fallible callers use
    /// [`PointLayout::try_new`].
    pub fn new(points: Vec<RepresentativePoint>, half_width: f64) -> Self {
        Self::try_new(points, half_width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PointLayout::new`].
    pub fn try_new(
        points: Vec<RepresentativePoint>,
        half_width: f64,
    ) -> Result<Self, RrsError> {
        if points.is_empty() {
            return Err(RrsError::invalid_param(
                "points",
                "point layout needs at least one point",
            ));
        }
        if !(half_width.is_finite() && half_width > 0.0) {
            return Err(RrsError::invalid_param(
                "half_width",
                format!("transition half-width must be positive, got {half_width}"),
            ));
        }
        for i in 0..points.len() {
            for j in i + 1..points.len() {
                let d = (points[i].x - points[j].x).hypot(points[i].y - points[j].y);
                if !(d > 0.0) {
                    return Err(RrsError::invalid_param(
                        "points",
                        format!("representative points {i} and {j} coincide"),
                    ));
                }
            }
        }
        let sep: Vec<f64> = points
            .iter()
            .flat_map(|ps| points.iter().map(move |pm| (pm.x - ps.x).hypot(pm.y - ps.y)))
            .collect();
        let reach = sep
            .iter()
            .map(|&sep| {
                let ts = half_width * (2.0 * sep);
                if half_width.is_normal() && ts.is_normal() {
                    ts * (1.0 + REACH_SLACK)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Ok(Self { points, half_width, sep, reach })
    }

    /// The representative points, in kernel-index order.
    pub fn points(&self) -> &[RepresentativePoint] {
        &self.points
    }

    /// The transition half-width `T`.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// Index of the nearest representative point to `(x, y)` (eqn 41's
    /// `m*`). Ties resolve to the lowest index, deterministically.
    pub fn nearest(&self, x: f64, y: f64) -> usize {
        nearest_of(self.points.iter().map(|p| sq_dist(p, x, y)))
    }

    /// The bisector distance `τ(n, n_m, n_m*)` of eqn (42): how far `n`
    /// is from the perpendicular bisector of `[n_m, n_m*]`, measured
    /// towards `n_m`. Non-negative whenever `m*` is the nearest point.
    pub fn tau(&self, x: f64, y: f64, m: usize, m_star: usize) -> f64 {
        let d_m = sq_dist(&self.points[m], x, y);
        let d_s = sq_dist(&self.points[m_star], x, y);
        let sep = self.sep[m_star * self.points.len() + m];
        debug_assert!(sep > 0.0);
        (d_m - d_s) / (2.0 * sep)
    }

    /// [`WeightMap::weights_at`] on a caller-provided working array, one
    /// entry per point: it holds each point's squared distance, then each
    /// neighbour's `τ` (`∞` for the nearest point and for neighbours
    /// `reach` rules out). `τ` and the weights are the two-pass formula's
    /// own expressions, so they keep its bits. Inlined into both paths of
    /// [`WeightMap::weights_at`], so the stack path runs without a call or
    /// a heap check.
    #[inline(always)]
    fn weights_into(&self, x: f64, y: f64, tau: &mut [f64], out: &mut Vec<(usize, f64)>) {
        out.clear();
        for (d, p) in tau.iter_mut().zip(&self.points) {
            *d = sq_dist(p, x, y);
        }
        let m_star = nearest_of(tau.iter().copied());
        let d_s = tau[m_star];
        let t = self.half_width;
        let row = m_star * self.points.len()..(m_star + 1) * self.points.len();
        let pairs = self.sep[row.clone()].iter().zip(&self.reach[row]);
        // Eqn 43: the participating neighbours, each τ divided out once.
        let mut others = 0usize;
        for (m, (tau, (&sep, &reach))) in tau.iter_mut().zip(pairs).enumerate() {
            let d = *tau - d_s;
            *tau = if m == m_star || d > reach { f64::INFINITY } else { d / (2.0 * sep) };
            others += usize::from(*tau <= t);
        }
        if others == 0 {
            out.push((m_star, 1.0));
            return;
        }
        // Eqn 44 (reconstructed): g̃(m) = (1 − τ/T) / (2·M̃);
        // eqn 45: the nearest point absorbs the remainder.
        let mut remainder = 1.0;
        for (m, &tau) in tau.iter().enumerate() {
            if tau <= t {
                let g = (1.0 - tau / t).max(0.0) / (2.0 * others as f64);
                if g > 0.0 {
                    out.push((m, g));
                    remainder -= g;
                }
            }
        }
        out.push((m_star, remainder));
    }
}

/// Squared distance from `p` to `(x, y)`.
#[inline]
fn sq_dist(p: &RepresentativePoint, x: f64, y: f64) -> f64 {
    (p.x - x) * (p.x - x) + (p.y - y) * (p.y - y)
}

/// Index of the smallest squared distance; ties resolve to the lowest
/// index.
#[inline]
fn nearest_of(d2: impl Iterator<Item = f64>) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, d) in d2.enumerate() {
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

impl WeightMap for PointLayout {
    fn kernel_count(&self) -> usize {
        self.points.len()
    }

    fn spectra(&self) -> Vec<SpectrumModel> {
        self.points.iter().map(|p| p.spectrum).collect()
    }

    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        let n = self.points.len();
        if n <= STACK_POINTS {
            self.weights_into(x, y, &mut [0.0; STACK_POINTS][..n], out);
        } else {
            self.weights_into(x, y, &mut vec![0.0; n], out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_spectrum::SurfaceParams;

    fn sm(h: f64, cl: f64) -> SpectrumModel {
        SpectrumModel::gaussian(SurfaceParams::isotropic(h, cl))
    }

    fn two_points(t: f64) -> PointLayout {
        PointLayout::new(
            vec![
                RepresentativePoint { x: 0.0, y: 0.0, spectrum: sm(1.0, 4.0) },
                RepresentativePoint { x: 100.0, y: 0.0, spectrum: sm(2.0, 8.0) },
            ],
            t,
        )
    }

    #[test]
    fn nearest_point_selection() {
        let l = two_points(10.0);
        assert_eq!(l.nearest(10.0, 5.0), 0);
        assert_eq!(l.nearest(90.0, -5.0), 1);
        assert_eq!(l.nearest(50.0, 0.0), 0); // tie → lowest index
    }

    #[test]
    fn tau_is_distance_to_bisector() {
        let l = two_points(10.0);
        // Bisector is x = 50. At x = 30 the nearest is 0; τ of point 1
        // must be 20 (distance to the bisector).
        let tau = l.tau(30.0, 0.0, 1, 0);
        assert!((tau - 20.0).abs() < 1e-12, "τ = {tau}");
        // Off-axis: τ only depends on the x coordinate for this pair.
        let tau = l.tau(30.0, 44.0, 1, 0);
        assert!((tau - 20.0).abs() < 1e-9);
        // On the bisector, τ = 0.
        assert!(l.tau(50.0, 7.0, 1, 0).abs() < 1e-12);
    }

    #[test]
    fn weights_deep_inside_cell_are_pure() {
        let l = two_points(10.0);
        let mut w = Vec::new();
        l.weights_at(5.0, 0.0, &mut w);
        assert_eq!(w, vec![(0, 1.0)]);
        l.weights_at(95.0, 0.0, &mut w);
        assert_eq!(w, vec![(1, 1.0)]);
    }

    #[test]
    fn bisector_blends_evenly_and_ramps_linearly() {
        let t = 10.0;
        let l = two_points(t);
        let mut w = Vec::new();
        // On the bisector: 50/50.
        l.weights_at(50.0, 0.0, &mut w);
        let w0 = w.iter().find(|&&(k, _)| k == 0).unwrap().1;
        let w1 = w.iter().find(|&&(k, _)| k == 1).unwrap().1;
        assert!((w0 - 0.5).abs() < 1e-9 && (w1 - 0.5).abs() < 1e-9, "{w:?}");
        // Moving into cell 0, the neighbour's weight decays linearly,
        // reaching 0 at τ = T.
        for i in 0..=10 {
            let x = 50.0 - i as f64; // τ of point 1 grows as 2·(50−x)/2 = 50−x... τ = 50−x
            l.weights_at(x, 0.0, &mut w);
            let tau = 50.0 - x;
            let expect = if tau >= t { 0.0 } else { 0.5 * (1.0 - tau / t) };
            let w1 = w.iter().find(|&&(k, _)| k == 1).map_or(0.0, |&(_, v)| v);
            assert!((w1 - expect).abs() < 1e-9, "x={x}: {w1} vs {expect}");
            let total: f64 = w.iter().map(|&(_, v)| v).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_point_always_dominates() {
        // Nine ring points + centre, as in Figure 4.
        let mut pts = Vec::new();
        for i in 1..=9 {
            let th = core::f64::consts::TAU * i as f64 / 9.0;
            pts.push(RepresentativePoint {
                x: 500.0 * th.cos(),
                y: 500.0 * th.sin(),
                spectrum: sm(1.0, 5.0),
            });
        }
        pts.push(RepresentativePoint { x: 0.0, y: 0.0, spectrum: sm(0.5, 10.0) });
        let l = PointLayout::new(pts, 100.0);
        let mut w = Vec::new();
        for &(x, y) in &[(0.0, 0.0), (250.0, 0.0), (400.0, 300.0), (-200.0, -100.0)] {
            l.weights_at(x, y, &mut w);
            let m_star = l.nearest(x, y);
            let total: f64 = w.iter().map(|&(_, v)| v).sum();
            assert!((total - 1.0).abs() < 1e-9);
            let ws = w.iter().find(|&&(k, _)| k == m_star).unwrap().1;
            assert!(ws >= 0.5 - 1e-9, "nearest weight {ws} at ({x},{y})");
            for &(_, v) in &w {
                assert!(v >= 0.0);
            }
        }
    }

    /// The per-pair formula the layout evaluated before its separation
    /// table: every `τ` from scratch (two squared distances and a
    /// `hypot`), twice per neighbour.
    fn weights_by_pair_formula(l: &PointLayout, x: f64, y: f64) -> Vec<(usize, f64)> {
        let pts = l.points();
        let tau = |m: usize, s: usize| {
            let (pm, ps) = (&pts[m], &pts[s]);
            let sep = (pm.x - ps.x).hypot(pm.y - ps.y);
            let d_m = (pm.x - x) * (pm.x - x) + (pm.y - y) * (pm.y - y);
            let d_s = (ps.x - x) * (ps.x - x) + (ps.y - y) * (ps.y - y);
            (d_m - d_s) / (2.0 * sep)
        };
        let mut m_star = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, p) in pts.iter().enumerate() {
            let d = (p.x - x) * (p.x - x) + (p.y - y) * (p.y - y);
            if d < best_d {
                best_d = d;
                m_star = i;
            }
        }
        let t = l.half_width();
        let others = (0..pts.len()).filter(|&m| m != m_star && tau(m, m_star) <= t).count();
        if others == 0 {
            return vec![(m_star, 1.0)];
        }
        let mut out = Vec::new();
        let mut remainder = 1.0;
        for m in (0..pts.len()).filter(|&m| m != m_star) {
            let tau = tau(m, m_star);
            if tau <= t {
                let g = (1.0 - tau / t).max(0.0) / (2.0 * others as f64);
                if g > 0.0 {
                    out.push((m, g));
                    remainder -= g;
                }
            }
        }
        out.push((m_star, remainder));
        out
    }

    #[test]
    fn separation_table_matches_the_pair_formula_bit_for_bit_on_figure_4() {
        // Figure 4 at scale 0.25: nine points on a radius-125 ring plus
        // the origin, T = 25, over its whole 384x384 window.
        let mut pts: Vec<RepresentativePoint> = (1..=9)
            .map(|i| {
                let th = core::f64::consts::TAU * i as f64 / 9.0;
                let (x, y) = (125.0 * th.cos(), 125.0 * th.sin());
                RepresentativePoint { x, y, spectrum: sm(1.0, 5.0) }
            })
            .collect();
        pts.push(RepresentativePoint { x: 0.0, y: 0.0, spectrum: sm(0.5, 25.0) });
        let l = PointLayout::new(pts, 25.0);
        let mut w = Vec::new();
        let mut blended = 0usize;
        for iy in -192..192i64 {
            for ix in -192..192i64 {
                let (x, y) = (ix as f64, iy as f64);
                l.weights_at(x, y, &mut w);
                let want = weights_by_pair_formula(&l, x, y);
                let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    v.iter().map(|&(k, g)| (k, g.to_bits())).collect()
                };
                assert_eq!(bits(&w), bits(&want), "weights at ({x}, {y})");
                blended += usize::from(w.len() > 1);
            }
        }
        assert!(blended > 10_000, "the window must cross many transition bands: {blended}");
    }

    #[test]
    fn single_point_is_homogeneous() {
        let l = PointLayout::new(
            vec![RepresentativePoint { x: 0.0, y: 0.0, spectrum: sm(1.0, 5.0) }],
            10.0,
        );
        let mut w = Vec::new();
        l.weights_at(123.0, -456.0, &mut w);
        assert_eq!(w, vec![(0, 1.0)]);
    }

    #[test]
    fn spectra_follow_point_order() {
        let l = two_points(10.0);
        let s = l.spectra();
        assert_eq!(s[0], sm(1.0, 4.0));
        assert_eq!(s[1], sm(2.0, 8.0));
        assert_eq!(l.kernel_count(), 2);
    }

    #[test]
    #[should_panic(expected = "coincide")]
    fn coincident_points_rejected() {
        PointLayout::new(
            vec![
                RepresentativePoint { x: 1.0, y: 1.0, spectrum: sm(1.0, 4.0) },
                RepresentativePoint { x: 1.0, y: 1.0, spectrum: sm(2.0, 8.0) },
            ],
            10.0,
        );
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_layout_rejected() {
        PointLayout::new(vec![], 10.0);
    }
}
