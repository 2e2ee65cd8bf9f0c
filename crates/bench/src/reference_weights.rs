//! The weight maps as `rrs-inhomo` computed them before its one-τ point
//! pass and its prepared plate shapes: every neighbour's `τ` divided out
//! in both passes of eqns 43–45, and every plate's membership through
//! [`Region::signed_distance`](rrs_inhomo::Region::signed_distance).
//! Gates time them as the reference the current maps are measured
//! against, and tests assert that both give the same `(index, weight)`
//! lists, bit for bit and in the same order.

use rrs_inhomo::{PlateLayout, PointLayout, RepresentativePoint, WeightMap};
use rrs_spectrum::SpectrumModel;

/// Layouts with at most this many points keep the per-sample squared
/// distances on the stack.
const STACK_POINTS: usize = 32;

/// [`PointLayout`]'s weights by the two-pass formula: the nearest point,
/// then every neighbour's `τ` once to count the participants and again
/// to weigh them.
pub struct TwoPassPoints {
    points: Vec<RepresentativePoint>,
    half_width: f64,
    /// `sep[s·M + m] = |n_m − n_s|`, as the layout tabulates it.
    sep: Vec<f64>,
}

impl TwoPassPoints {
    /// The reference map of `layout`.
    pub fn new(layout: &PointLayout) -> Self {
        let points = layout.points().to_vec();
        let sep = points
            .iter()
            .flat_map(|ps| points.iter().map(move |pm| (pm.x - ps.x).hypot(pm.y - ps.y)))
            .collect();
        Self { points, half_width: layout.half_width(), sep }
    }
}

impl WeightMap for TwoPassPoints {
    fn kernel_count(&self) -> usize {
        self.points.len()
    }

    fn spectra(&self) -> Vec<SpectrumModel> {
        self.points.iter().map(|p| p.spectrum).collect()
    }

    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let mut stack = [0.0f64; STACK_POINTS];
        let mut heap = Vec::new();
        let d2: &mut [f64] = if self.points.len() <= STACK_POINTS {
            &mut stack[..self.points.len()]
        } else {
            heap.resize(self.points.len(), 0.0);
            &mut heap
        };
        for (d, p) in d2.iter_mut().zip(&self.points) {
            *d = (p.x - x) * (p.x - x) + (p.y - y) * (p.y - y);
        }
        let d2: &[f64] = d2;
        let mut m_star = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &d) in d2.iter().enumerate() {
            if d < best_d {
                best_d = d;
                m_star = i;
            }
        }
        let t = self.half_width;
        let n = self.points.len();
        let tau = |m: usize| (d2[m] - d2[m_star]) / (2.0 * self.sep[m_star * n + m]);
        let others = (0..n).filter(|&m| m != m_star && tau(m) <= t).count();
        if others == 0 {
            out.push((m_star, 1.0));
            return;
        }
        let mut remainder = 1.0;
        for m in (0..n).filter(|&m| m != m_star) {
            let tau = tau(m);
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

/// [`PlateLayout`]'s weights with every membership through the region's
/// signed distance, recomputed per sample.
pub struct SdfPlates {
    layout: PlateLayout,
}

impl SdfPlates {
    /// The reference map of `layout`.
    pub fn new(layout: PlateLayout) -> Self {
        Self { layout }
    }

    fn membership(&self, i: usize, x: f64, y: f64) -> f64 {
        let sd = self.layout.plates()[i].region.signed_distance(x, y);
        rrs_num::interp::clamp(0.5 - sd / self.layout.transition(), 0.0, 1.0)
    }
}

impl WeightMap for SdfPlates {
    fn kernel_count(&self) -> usize {
        self.layout.kernel_count()
    }

    fn spectra(&self) -> Vec<SpectrumModel> {
        self.layout.spectra()
    }

    fn weights_at(&self, x: f64, y: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let plates = self.layout.plates();
        let mut total = 0.0;
        for i in 0..plates.len() {
            let m = self.membership(i, x, y);
            if m > 0.0 {
                out.push((i, m));
                total += m;
            }
        }
        if self.layout.background().is_some() {
            let bg = (1.0 - total).max(0.0);
            if bg > 0.0 {
                out.push((plates.len(), bg));
                total += bg;
            }
        }
        if out.is_empty() {
            let nearest = (0..plates.len())
                .min_by(|&a, &b| {
                    let da = plates[a].region.signed_distance(x, y);
                    let db = plates[b].region.signed_distance(x, y);
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
