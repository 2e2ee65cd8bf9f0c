//! Cross-crate integration: propagation over *generated* terrain — the
//! full pipeline the paper's introduction motivates (surface statistics →
//! terrain → radio links).

use rrs::grid::extract_profile;
use rrs::prelude::*;
use rrs::propagation::{deygout_loss_db, epstein_peterson_loss_db, link_budget_sweep};

fn terrain(h: f64, cl: f64, seed: u64, n: usize) -> rrs::grid::Grid2<f64> {
    let s = Gaussian::new(SurfaceParams::isotropic(h, cl));
    ConvolutionGenerator::new(&s, KernelSizing::default())
        .with_context(GenContext::new().with_workers(2))
        .generate(&NoiseField::new(seed), Window::new(0, 0, n, n))
}

/// Ensemble-averaged diffraction loss grows with surface roughness at
/// fixed correlation length.
#[test]
fn rougher_terrain_attenuates_more_on_average() {
    let n = 384usize;
    let lambda = 0.125; // 2.4 GHz
    let mean_loss = |h: f64| -> f64 {
        let mut total = 0.0;
        let mut count = 0.0;
        for seed in 0..6u64 {
            let t = terrain(h, 8.0, seed, n);
            for row in [64usize, 192, 320] {
                let p = rrs::grid::extract_row(&t, row);
                total += deygout_loss_db(&p, 2.0, 2.0, lambda);
                count += 1.0;
            }
        }
        total / count
    };
    let smooth = mean_loss(0.5);
    let rough = mean_loss(3.0);
    assert!(
        rough > smooth + 3.0,
        "rough terrain {rough} dB vs smooth {smooth} dB"
    );
}

/// Diffraction loss grows with path length over the same rough terrain.
#[test]
fn loss_grows_along_the_path() {
    let t = terrain(2.0, 8.0, 3, 512);
    let p = rrs::grid::extract_row(&t, 256);
    let sweep = link_budget_sweep(&p, 2.0, 2.0, 2.4e9, 64, 64);
    assert!(sweep.len() >= 6);
    // Total loss (free space + diffraction) must trend upward; allow
    // local wiggles from individual crests.
    let first = sweep.first().unwrap().total_db();
    let last = sweep.last().unwrap().total_db();
    assert!(last > first + 6.0, "loss {first} → {last} dB");
    for s in &sweep {
        assert!(s.diffraction_db >= 0.0 && s.diffraction_db.is_finite());
    }
}

/// The two multi-edge constructions agree on order of magnitude over
/// generated terrain (they are different approximations of the same
/// physics).
#[test]
fn deygout_and_epstein_peterson_are_consistent() {
    let t = terrain(2.0, 10.0, 9, 512);
    let lambda = 0.3;
    let mut pairs = Vec::new();
    for row in (32..512).step_by(96) {
        let p = rrs::grid::extract_row(&t, row);
        let dg = deygout_loss_db(&p, 2.0, 2.0, lambda);
        let ep = epstein_peterson_loss_db(&p, 2.0, 2.0, lambda);
        pairs.push((dg, ep));
    }
    // Both must be non-negative and correlated: whenever one sees a
    // heavily obstructed path, so does the other.
    for &(dg, ep) in &pairs {
        assert!(dg >= 0.0 && ep >= 0.0);
        if dg > 20.0 {
            assert!(ep > 5.0, "EP {ep} missing obstruction Deygout sees ({dg})");
        }
    }
}

/// Links crossing an inhomogeneous boundary see the roughness change:
/// paths within the smooth region lose less than paths within the rough
/// region of the very same surface.
#[test]
fn inhomogeneous_terrain_splits_link_quality() {
    let smooth = Plate {
        region: Region::HalfPlane { a: 0.0, b: 1.0, c: 192.0 }, // y <= 192 smooth
        spectrum: SpectrumModel::gaussian(SurfaceParams::isotropic(0.4, 8.0)),
    };
    let layout = PlateLayout::new(
        vec![smooth],
        Some(SpectrumModel::gaussian(SurfaceParams::isotropic(2.5, 8.0))),
        16.0,
    );
    let gen = InhomogeneousGenerator::new(
        layout,
        KernelSizing::Auto { factor: 8.0, min: 16, max: 128 },
    );
    let lambda = 0.125;
    let mut low = 0.0;
    let mut high = 0.0;
    for seed in 0..4u64 {
        let t = gen.generate(&NoiseField::new(seed), Window::new(0, 0, 384, 384));
        for (acc, rows) in [(&mut low, [40usize, 100]), (&mut high, [280, 340])] {
            for row in rows {
                let p = rrs::grid::extract_row(&t, row);
                *acc += deygout_loss_db(&p, 2.0, 2.0, lambda);
            }
        }
    }
    assert!(
        high > low + 5.0,
        "rough half {high} dB must exceed smooth half {low} dB"
    );
}

/// Diagonal profiles across generated terrain behave sanely end to end.
#[test]
fn diagonal_profile_link_budget() {
    let t = terrain(1.0, 10.0, 5, 256);
    let p = extract_profile(&t, (10.0, 10.0), (245.0, 245.0), 300);
    let sweep = link_budget_sweep(&p, 3.0, 3.0, 900e6, 50, 50);
    assert!(!sweep.is_empty());
    for s in &sweep {
        assert!(s.total_db().is_finite());
        assert!(s.free_space_db > 0.0);
    }
}
