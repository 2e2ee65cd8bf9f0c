//! The paper's four numerical examples, parameterised by scale.
//!
//! All linear dimensions (domain size, correlation lengths, radii,
//! transition widths) multiply by `scale`; `scale = 1.0` is the paper's
//! own parameterisation (e.g. Figure 3's radius-500 circle). The OCR of
//! the paper lost decimal points; the reconstructed parameters are
//! documented in EXPERIMENTS.md §Assumed parameters.

use rrs_grid::{Grid2, Window};
use rrs_inhomo::{
    InhomogeneousGenerator, Plate, PlateLayout, PointLayout, Region, RepresentativePoint,
    WeightMap,
};
use rrs_spectrum::{SpectrumModel, SurfaceParams};
use rrs_stats::{validate_region, RegionReport};
use rrs_surface::{KernelSizing, NoiseField};

/// A homogeneous sub-region of a figure with its target spectrum, used
/// for quantitative validation.
#[derive(Clone, Debug)]
pub struct FigureRegion {
    /// Human-readable label (quadrant, pond, ring cell, ...).
    pub name: &'static str,
    /// Validation window `(x0, y0, w, h)` in output-grid coordinates.
    pub window: (usize, usize, usize, usize),
    /// The spectrum the generator was asked for there.
    pub spectrum: SpectrumModel,
}

/// A figure's weight map, kept concrete so tests and benches can build
/// its [`reference_weights`](crate::reference_weights) twin.
#[derive(Clone, Debug)]
pub enum FigureLayout {
    /// A plate-oriented layout (Figures 1–3, linear profile).
    Plates(PlateLayout),
    /// A point-oriented layout (Figure 4).
    Points(PointLayout),
}

impl FigureLayout {
    /// The same map computed by the reference formulas.
    pub fn reference(&self) -> Box<dyn WeightMap> {
        use crate::reference_weights::{SdfPlates, TwoPassPoints};
        match self {
            FigureLayout::Plates(l) => {
                Box::new(SdfPlates::new(l.clone(), rrs_inhomo::TransitionProfile::Linear))
            }
            FigureLayout::Points(l) => Box::new(TwoPassPoints::new(l)),
        }
    }
}

/// One reproducible paper figure.
pub struct Figure {
    /// Identifier (`fig1` ... `fig4`).
    pub id: &'static str,
    /// Description shown in reports.
    pub title: String,
    /// Output width in samples.
    pub nx: usize,
    /// Output height in samples.
    pub ny: usize,
    /// Window origin in absolute surface coordinates.
    pub origin: (i64, i64),
    /// Noise seed (any value reproduces the paper's *statistics*; the
    /// exact pixels are seed-dependent, as in the paper).
    pub seed: u64,
    /// The configured generator.
    pub generator: InhomogeneousGenerator<Box<dyn WeightMap>>,
    /// The layout the generator's map was built from.
    pub layout: FigureLayout,
    /// Homogeneous sub-regions to validate.
    pub regions: Vec<FigureRegion>,
}

impl Figure {
    /// Generates the figure's surface.
    pub fn generate(&self) -> Grid2<f64> {
        self.generator.generate(
            &NoiseField::new(self.seed),
            Window::new(self.origin.0, self.origin.1, self.nx, self.ny),
        )
    }

    /// Validates every declared region of a generated surface.
    pub fn validate(&self, surface: &Grid2<f64>) -> Vec<(&'static str, RegionReport)> {
        self.regions
            .iter()
            .map(|r| {
                let (x0, y0, w, h) = r.window;
                (r.name, validate_region(surface, &r.spectrum, x0, y0, w, h))
            })
            .collect()
    }

    /// Ensemble validation over `reps` independent noise seeds: per-seed
    /// estimates fluctuate by `O(h/√patches)`; averaging shrinks that by
    /// `√reps`. Costs `reps ×` one figure generation; every region is
    /// validated on each realisation.
    pub fn validate_ensemble(&self, reps: u64) -> Vec<(&'static str, RegionReport)> {
        use rrs_spectrum::Spectrum;
        let mut per_region: Vec<Vec<RegionReport>> =
            vec![Vec::with_capacity(reps as usize); self.regions.len()];
        for seed in self.seed..self.seed + reps {
            let surface = self.generator.generate(
                &NoiseField::new(seed),
                Window::new(self.origin.0, self.origin.1, self.nx, self.ny),
            );
            for (i, r) in self.regions.iter().enumerate() {
                let (x0, y0, w, h) = r.window;
                per_region[i].push(validate_region(&surface, &r.spectrum, x0, y0, w, h));
            }
        }
        self.regions
            .iter()
            .zip(per_region)
            .map(|(r, reports)| {
                (r.name, rrs_stats::validate::aggregate_reports(r.spectrum.params(), &reports))
            })
            .collect()
    }
}

fn even(x: f64) -> usize {
    let n = x.round().max(2.0) as usize;
    n + n % 2
}

fn sizing() -> KernelSizing {
    KernelSizing::Auto { factor: 8.0, min: 16, max: 2048 }
}

/// Validation-window inset for a region with transition `t` and
/// correlation length `cl`.
fn margin(t: f64, cl: f64) -> usize {
    (0.5 * t + 2.0 * cl).ceil() as usize
}

/// Figure 1 — plate-oriented, one spectrum family (Gaussian), four
/// quadrants with different `(h, cl)`:
/// q1 `(1.0, 40)`, q2 `(1.5, 60)`, q3 `(2.0, 80)`, q4 `(1.5, 60)`.
pub fn fig1(scale: f64, trunc_eps: f64, seed: u64) -> Figure {
    let n = even(1024.0 * scale);
    let t = (40.0 * scale).max(2.0);
    let q = |h: f64, cl: f64| {
        SpectrumModel::gaussian(SurfaceParams::isotropic(h, (cl * scale).max(3.0)))
    };
    let spectra = [q(1.0, 40.0), q(1.5, 60.0), q(2.0, 80.0), q(1.5, 60.0)];
    quadrant_figure("fig1", "Figure 1: same spectrum, four parameter sets", n, t, spectra, trunc_eps, seed)
}

/// Figure 2 — plate-oriented, four different spectra:
/// q1 Gaussian `(1.0, 40)`, q2 2nd-order Power-Law `(1.5, 60)`,
/// q3 Exponential `(2.0, 80)`, q4 3rd-order Power-Law `(1.5, 60)`.
pub fn fig2(scale: f64, trunc_eps: f64, seed: u64) -> Figure {
    let n = even(1024.0 * scale);
    let t = (40.0 * scale).max(2.0);
    let cl = |c: f64| (c * scale).max(3.0);
    let spectra = [
        SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, cl(40.0))),
        SpectrumModel::power_law(SurfaceParams::isotropic(1.5, cl(60.0)), 2.0),
        SpectrumModel::exponential(SurfaceParams::isotropic(2.0, cl(80.0))),
        SpectrumModel::power_law(SurfaceParams::isotropic(1.5, cl(60.0)), 3.0),
    ];
    quadrant_figure("fig2", "Figure 2: four different spectra", n, t, spectra, trunc_eps, seed)
}

fn quadrant_figure(
    id: &'static str,
    title: &str,
    n: usize,
    t: f64,
    spectra: [SpectrumModel; 4],
    trunc_eps: f64,
    seed: u64,
) -> Figure {
    use rrs_spectrum::Spectrum;
    let layout = rrs_inhomo::plate::quadrant_layout(n as f64, n as f64, spectra, t);
    let boxed: Box<dyn WeightMap> = Box::new(layout.clone());
    let generator = InhomogeneousGenerator::new_truncated(boxed, sizing(), trunc_eps);
    let h = n / 2;
    // Window builders per quadrant, inset by the region's own margin.
    let win = |qx: usize, qy: usize, s: &SpectrumModel| {
        let m = margin(t, s.params().clx).min(h / 3);
        (qx * h + m, qy * h + m, h - 2 * m, h - 2 * m)
    };
    let regions = vec![
        FigureRegion { name: "q1 (upper right)", window: win(1, 1, &spectra[0]), spectrum: spectra[0] },
        FigureRegion { name: "q2 (upper left)", window: win(0, 1, &spectra[1]), spectrum: spectra[1] },
        FigureRegion { name: "q3 (lower left)", window: win(0, 0, &spectra[2]), spectrum: spectra[2] },
        FigureRegion { name: "q4 (lower right)", window: win(1, 0, &spectra[3]), spectrum: spectra[3] },
    ];
    Figure {
        id,
        title: format!("{title} ({n}x{n}, T={t})"),
        nx: n,
        ny: n,
        origin: (0, 0),
        seed,
        generator,
        layout: FigureLayout::Plates(layout),
        regions,
    }
}

/// Figure 3 — plate-oriented circular region: an Exponential-spectrum
/// "pond" `(h=0.2, cl=50)` of radius 500 inside a Gaussian field
/// `(h=1.0, cl=50)`, transition `T = 100`.
pub fn fig3(scale: f64, trunc_eps: f64, seed: u64) -> Figure {
    let n = even(1536.0 * scale);
    let c = n as f64 / 2.0;
    let radius = 500.0 * scale;
    let t = (100.0 * scale).max(2.0);
    let cl = (50.0 * scale).max(3.0);
    let pond_spectrum = SpectrumModel::exponential(SurfaceParams::isotropic(0.2, cl));
    let field_spectrum = SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, cl));
    let layout = PlateLayout::new(
        vec![Plate {
            region: Region::Circle { cx: c, cy: c, r: radius },
            spectrum: pond_spectrum,
        }],
        Some(field_spectrum),
        t,
    );
    let boxed: Box<dyn WeightMap> = Box::new(layout.clone());
    let generator = InhomogeneousGenerator::new_truncated(boxed, sizing(), trunc_eps);
    // Pond window: centred square fully inside the circle minus margins.
    let m = margin(t, cl) as f64;
    let half_side = ((radius - m) / 2.0_f64.sqrt()).max(4.0) as usize;
    let cy = n / 2;
    let pond_window = (cy - half_side, cy - half_side, 2 * half_side, 2 * half_side);
    // Field window: the full-width strip below the circle's influence —
    // wide in x so the correlation profile has room.
    let strip_h = ((c - radius - m).max(8.0) as usize).min(n);
    let field_window = (0, 0, n, strip_h);
    Figure {
        id: "fig3",
        title: format!("Figure 3: circular pond in a field ({n}x{n}, r={radius}, T={t})"),
        nx: n,
        ny: n,
        origin: (0, 0),
        seed,
        generator,
        layout: FigureLayout::Plates(layout),
        regions: vec![
            FigureRegion { name: "pond (inside circle)", window: pond_window, spectrum: pond_spectrum },
            FigureRegion { name: "field (outside circle)", window: field_window, spectrum: field_spectrum },
        ],
    }
}

/// Figure 4 — point-oriented: nine points on a radius-500 ring at angles
/// `2πi/9` plus the origin. Gaussian `(1.0, 50)` for `i = 1..3`,
/// Gaussian `(1.5, 75)` for `i = 4..6`, Gaussian `(2.0, 100)` for
/// `i = 7..9`, Exponential `(0.5, 100)` at the origin; `T = 100`.
pub fn fig4(scale: f64, trunc_eps: f64, seed: u64) -> Figure {
    let n = even(1536.0 * scale);
    let ring = 500.0 * scale;
    let t = (100.0 * scale).max(2.0);
    let cl = |c: f64| (c * scale).max(3.0);
    let group = |i: usize| -> SpectrumModel {
        match i {
            1..=3 => SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, cl(50.0))),
            4..=6 => SpectrumModel::gaussian(SurfaceParams::isotropic(1.5, cl(75.0))),
            7..=9 => SpectrumModel::gaussian(SurfaceParams::isotropic(2.0, cl(100.0))),
            _ => unreachable!(),
        }
    };
    let mut points = Vec::with_capacity(10);
    for i in 1..=9usize {
        let th = core::f64::consts::TAU * i as f64 / 9.0;
        points.push(RepresentativePoint { x: ring * th.cos(), y: ring * th.sin(), spectrum: group(i) });
    }
    let centre_spectrum = SpectrumModel::exponential(SurfaceParams::isotropic(0.5, cl(100.0)));
    points.push(RepresentativePoint { x: 0.0, y: 0.0, spectrum: centre_spectrum });
    let layout = PointLayout::new(points, t);
    let boxed: Box<dyn WeightMap> = Box::new(layout.clone());
    let generator = InhomogeneousGenerator::new_truncated(boxed, sizing(), trunc_eps);

    let half = (n / 2) as i64;
    let origin = (-half, -half);
    // Validation windows: a centred square for the origin cell, plus a
    // square at one representative of each ring group, shrunk to stay
    // inside the Voronoi cell.
    let side = ((ring * 0.4) as usize).max(8);
    let to_window = |px: f64, py: f64| -> (usize, usize, usize, usize) {
        let x0 = (px as i64 + half) as usize;
        let y0 = (py as i64 + half) as usize;
        (x0.saturating_sub(side / 2), y0.saturating_sub(side / 2), side, side)
    };
    let rep = |i: usize| {
        let th = core::f64::consts::TAU * i as f64 / 9.0;
        // Sample slightly outside the ring, away from the centre cell.
        (1.15 * ring * th.cos(), 1.15 * ring * th.sin())
    };
    let (x2, y2) = rep(2);
    let (x5, y5) = rep(5);
    let (x8, y8) = rep(8);
    let regions = vec![
        FigureRegion { name: "centre cell (exponential)", window: to_window(0.0, 0.0), spectrum: centre_spectrum },
        FigureRegion { name: "ring cell i=2 (h=1.0)", window: to_window(x2, y2), spectrum: group(2) },
        FigureRegion { name: "ring cell i=5 (h=1.5)", window: to_window(x5, y5), spectrum: group(5) },
        FigureRegion { name: "ring cell i=8 (h=2.0)", window: to_window(x8, y8), spectrum: group(8) },
    ];
    Figure {
        id: "fig4",
        title: format!("Figure 4: point-oriented ring of nine + centre ({n}x{n}, R={ring}, T={t})"),
        nx: n,
        ny: n,
        origin,
        seed,
        generator,
        layout: FigureLayout::Points(layout),
        regions,
    }
}

/// All four figures at the given scale.
pub fn all_figures(scale: f64, trunc_eps: f64, seed: u64) -> Vec<Figure> {
    vec![
        fig1(scale, trunc_eps, seed),
        fig2(scale, trunc_eps, seed),
        fig3(scale, trunc_eps, seed),
        fig4(scale, trunc_eps, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_construct_at_small_scale() {
        for f in all_figures(0.125, 0.05, 1) {
            assert!(f.nx >= 64, "{}: nx = {}", f.id, f.nx);
            assert_eq!(f.nx % 2, 0);
            assert!(!f.regions.is_empty());
            for r in &f.regions {
                let (x0, y0, w, h) = r.window;
                assert!(w > 0 && h > 0, "{}: empty window {:?}", f.id, r.window);
                assert!(x0 + w <= f.nx && y0 + h <= f.ny, "{}: window out of bounds", f.id);
            }
        }
    }

    #[test]
    fn fig1_small_scale_validates() {
        let f = fig1(0.125, 0.05, 7);
        let surface = f.generate();
        assert_eq!(surface.shape(), (f.nx, f.ny));
        let reports = f.validate(&surface);
        assert_eq!(reports.len(), 4);
        // The quadrant ordering of roughness must match the paper:
        // q3 (h=2.0) > q2 = q4 (1.5) > q1 (1.0).
        let h: Vec<f64> = reports.iter().map(|(_, r)| r.h_measured).collect();
        assert!(h[2] > h[1] && h[2] > h[3] && h[1] > h[0] && h[3] > h[0], "ĥ = {h:?}");
        for (name, r) in &reports {
            assert!(r.h_rel_error() < 0.5, "{name}: ĥ = {}, target {}", r.h_measured, r.target.h);
        }
    }

    #[test]
    fn fig3_small_scale_pond_is_flat() {
        let f = fig3(0.125, 0.05, 3);
        let surface = f.generate();
        let reports = f.validate(&surface);
        let pond = &reports[0].1;
        let field = &reports[1].1;
        assert!(pond.h_measured < 0.45, "pond ĥ = {}", pond.h_measured);
        assert!(field.h_measured > 0.5, "field ĥ = {}", field.h_measured);
        assert!(field.h_measured > 2.0 * pond.h_measured);
    }
}
