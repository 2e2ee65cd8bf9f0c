//! Weight lookups keep their bits.
//!
//! `PointLayout` divides out each neighbour's `τ` once and skips the
//! neighbours a precomputed bound rules out; `PlateLayout` computes its
//! regions' constants once and settles samples beyond the transition
//! strip without a signed distance. Both must return exactly the
//! `(index, weight)` lists of the formulas they replaced, which
//! `rrs_bench::reference_weights` keeps: same indices, same order, same
//! bits. Checked over every sample of the paper's four figures and over
//! random layouts probed at the edges where a shortcut could differ.

use rrs::inhomo::{Plate, PlateLayout, PointLayout, Region, RepresentativePoint, WeightMap};
use rrs::prelude::*;
use rrs_bench::figures::all_figures;
use rrs_bench::reference_weights::{SdfPlates, TwoPassPoints};
use rrs_check::{any, CaseRng};

fn bits(weights: &[(usize, f64)]) -> Vec<(usize, u64)> {
    weights.iter().map(|&(k, g)| (k, g.to_bits())).collect()
}

/// Asserts that `map` and `reference` agree at every sample; returns how
/// many samples blend several kernels.
fn assert_same_weights(
    map: &dyn WeightMap,
    reference: &dyn WeightMap,
    samples: impl Iterator<Item = (f64, f64)>,
    what: &str,
) -> usize {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut blended = 0;
    for (x, y) in samples {
        map.weights_at(x, y, &mut got);
        reference.weights_at(x, y, &mut want);
        assert_eq!(bits(&got), bits(&want), "{what}: weights at ({x:e}, {y:e})");
        blended += usize::from(got.len() > 1);
    }
    blended
}

#[test]
fn every_figure_sample_keeps_its_weight_bits_at_scales_one_eighth_and_one_quarter() {
    for scale in [0.125, 0.25] {
        for fig in all_figures(scale, 0.05, 1) {
            let (x0, y0) = fig.origin;
            let samples = (0..fig.ny as i64).flat_map(|iy| {
                (0..fig.nx as i64).map(move |ix| ((x0 + ix) as f64, (y0 + iy) as f64))
            });
            let what = format!("{} at scale {scale}", fig.id);
            let reference = fig.layout.reference();
            let blended = assert_same_weights(fig.generator.map(), &*reference, samples, &what);
            assert!(blended > 1000, "{what} must cross its transition strips: {blended}");
        }
    }
}

/// `x` moved `k` representable values away from zero (towards it for a
/// negative `k`).
fn ulps(x: f64, k: i64) -> f64 {
    if x == 0.0 {
        return k as f64 * f64::from_bits(1);
    }
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

/// Log-uniform in `[lo, hi]`.
fn log_uniform(rng: &mut CaseRng, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.next_f64() * (hi.ln() - lo.ln())).exp()
}

/// The transition width `T` (1e-6 to 1e6) and the coordinate scale
/// (1 to 2⁶²) of one case.
fn widths(rng: &mut CaseRng) -> (f64, f64) {
    (log_uniform(rng, 1e-6, 1e6), log_uniform(rng, 1.0, 2f64.powi(62)))
}

/// `(x, y)` and its neighbours a few ulps away on either axis.
fn around(x: f64, y: f64, rng: &mut CaseRng) -> impl Iterator<Item = (f64, f64)> {
    let k = 1 + rng.next_below(4) as i64;
    [(0, 0), (k, 0), (-k, 0), (0, k), (0, -k), (k, -k)]
        .into_iter()
        .map(move |(kx, ky)| (ulps(x, kx), ulps(y, ky)))
}

fn point_layout(rng: &mut CaseRng) -> Option<(PointLayout, Vec<(f64, f64)>)> {
    let (t, span) = widths(rng);
    // Up to 40 points, so some layouts take the heap path past 32.
    let m = 1 + rng.next_below(40) as usize;
    let spectrum = SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0));
    // Points spread over `span`, or packed within a few T of each other
    // so that many samples blend.
    let spread = if rng.next_below(2) == 0 { span } else { t * (1.0 + 4.0 * rng.next_f64()) };
    let centre = (span * (rng.next_f64() - 0.5), span * (rng.next_f64() - 0.5));
    let points: Vec<RepresentativePoint> = (0..m)
        .map(|_| RepresentativePoint {
            x: centre.0 + spread * (rng.next_f64() - 0.5),
            y: centre.1 + spread * (rng.next_f64() - 0.5),
            spectrum,
        })
        .collect();
    let layout = PointLayout::try_new(points.clone(), t).ok()?;
    let mut samples = Vec::new();
    for _ in 0..24 {
        // A pair (s, m) and a sample where m's τ is T as seen from s: on
        // the segment at λ = 1/2 − T/sep, then moved along the bisector.
        let (s, n) = (rng.next_below(m as u64) as usize, rng.next_below(m as u64) as usize);
        let (ps, pm) = (points[s], points[n]);
        let (ex, ey) = (pm.x - ps.x, pm.y - ps.y);
        let sep = ex.hypot(ey).max(f64::MIN_POSITIVE);
        let lambda = 0.5 - t / sep;
        let along = spread * (rng.next_f64() - 0.5) / sep;
        let (x, y) = (ps.x + lambda * ex - along * ey, ps.y + lambda * ey + along * ex);
        samples.extend(around(x, y, rng));
        // And a sample anywhere near the layout.
        samples.push((
            centre.0 + 1.5 * spread * (rng.next_f64() - 0.5),
            centre.1 + 1.5 * spread * (rng.next_f64() - 0.5),
        ));
    }
    Some((layout, samples))
}

fn plate_layout(rng: &mut CaseRng) -> (PlateLayout, Vec<(f64, f64)>) {
    let (t, span) = widths(rng);
    let h = 0.5 * t;
    let spectrum = SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 4.0));
    let mut plates = Vec::new();
    let mut samples = Vec::new();
    let coord = |rng: &mut CaseRng| span * (rng.next_f64() - 0.5);
    // Sizes from well below T/2 to well above it.
    let size = |rng: &mut CaseRng| log_uniform(rng, h * 1e-3, (span * 0.5).max(h * 1e3));
    // An offset to one edge of the strip or the other.
    let side = |rng: &mut CaseRng| if rng.next_below(2) == 0 { -h } else { h };
    for _ in 0..1 + rng.next_below(4) {
        let region = match rng.next_below(4) {
            0 => {
                let (x0, y0) = (coord(rng), coord(rng));
                let (x1, y1) = (x0 + size(rng), y0 + size(rng));
                for _ in 0..6 {
                    let u = rng.next_f64();
                    let (ex, ey) = match rng.next_below(4) {
                        0 => (x0, y0 + u * (y1 - y0)),
                        1 => (x1, y0 + u * (y1 - y0)),
                        2 => (x0 + u * (x1 - x0), y0),
                        _ => (x0 + u * (x1 - x0), y1),
                    };
                    samples.extend(around(ex + side(rng), ey, rng));
                    samples.extend(around(ex, ey + side(rng), rng));
                }
                Region::Rect { x0, y0, x1, y1 }
            }
            1 => {
                let (cx, cy, r) = (coord(rng), coord(rng), size(rng));
                for _ in 0..6 {
                    let th = std::f64::consts::TAU * rng.next_f64();
                    let rad = r + side(rng);
                    samples.extend(around(cx + rad * th.cos(), cy + rad * th.sin(), rng));
                }
                samples.push((cx, cy));
                Region::Circle { cx, cy, r }
            }
            2 => {
                let th = std::f64::consts::TAU * rng.next_f64();
                let k = log_uniform(rng, 1e-3, 1e3);
                let (a, b) = (k * th.cos(), k * th.sin());
                let (fx, fy) = (coord(rng), coord(rng));
                let c = a * fx + b * fy;
                for _ in 0..6 {
                    let (off, along) = (side(rng), span * (rng.next_f64() - 0.5));
                    let (x, y) = (fx + off * th.cos(), fy + off * th.sin());
                    samples.extend(around(x - along * th.sin(), y + along * th.cos(), rng));
                }
                Region::HalfPlane { a, b, c }
            }
            _ => {
                let (cx, cy, r) = (coord(rng), coord(rng), size(rng));
                let theta0 = std::f64::consts::TAU * rng.next_f64();
                let theta1 = theta0 + 0.1 + 3.0 * rng.next_f64();
                for _ in 0..6 {
                    let th = theta0 + (theta1 - theta0) * rng.next_f64();
                    let rad = r * rng.next_f64() * 1.2;
                    samples.extend(around(cx + rad * th.cos(), cy + rad * th.sin(), rng));
                }
                Region::Sector { cx, cy, r, theta0, theta1 }
            }
        };
        plates.push(Plate { region, spectrum });
    }
    for _ in 0..16 {
        samples.push((coord(rng), coord(rng)));
    }
    let background = (rng.next_below(2) == 0).then_some(spectrum);
    (PlateLayout::new(plates, background, t), samples)
}

rrs_check::props! {
    #![cases = 256]

    /// Random point layouts, probed a few ulps either side of `τ = T`.
    fn point_weights_keep_their_bits_at_the_edge_of_every_strip(seed in any::<u64>()) {
        let mut rng = CaseRng::new(seed);
        let Some((layout, samples)) = point_layout(&mut rng) else { return };
        let reference = TwoPassPoints::new(&layout);
        assert_same_weights(&layout, &reference, samples.into_iter(), "point layout");
    }

    /// Random plate layouts (rectangles, circles of any radius against
    /// `T/2`, half-planes, sectors), probed a few ulps either side of
    /// each strip edge.
    fn plate_weights_keep_their_bits_at_the_edge_of_every_strip(seed in any::<u64>()) {
        let mut rng = CaseRng::new(seed);
        let (layout, samples) = plate_layout(&mut rng);
        let reference = SdfPlates::new(layout.clone());
        assert_same_weights(&layout, &reference, samples.into_iter(), "plate layout");
    }
}
