//! Wireless-sensor-network scenario — the application that motivates the
//! paper.
//!
//! Terrain is synthesised with the point-oriented method (Figure 4's
//! layout: nine representative points on a ring plus a smooth centre),
//! then a radio link budget is evaluated along profiles cut across the
//! inhomogeneous terrain: a sensor at the smooth centre talking to nodes
//! out in the progressively rougher ring cells.
//!
//! ```text
//! cargo run --release --example sensor_field
//! ```

use rrs::grid::extract_profile;
use rrs::prelude::*;
use rrs::propagation::{free_space_loss_db, link_budget_sweep};
use std::fs::File;

fn main() {
    // Quarter-scale Figure 4 layout.
    let ring = 125.0;
    let n = 384usize;
    let half = (n / 2) as i64;
    let group = |i: usize| -> SpectrumModel {
        match i {
            1..=3 => SpectrumModel::gaussian(SurfaceParams::isotropic(1.0, 12.5)),
            4..=6 => SpectrumModel::gaussian(SurfaceParams::isotropic(1.5, 18.75)),
            _ => SpectrumModel::gaussian(SurfaceParams::isotropic(2.0, 25.0)),
        }
    };
    let mut points = Vec::new();
    for i in 1..=9usize {
        let th = std::f64::consts::TAU * i as f64 / 9.0;
        points.push(RepresentativePoint {
            x: ring * th.cos(),
            y: ring * th.sin(),
            spectrum: group(i),
        });
    }
    points.push(RepresentativePoint {
        x: 0.0,
        y: 0.0,
        spectrum: SpectrumModel::exponential(SurfaceParams::isotropic(0.5, 25.0)),
    });
    let layout = PointLayout::new(points, 25.0);
    let generator = InhomogeneousGenerator::new(layout, KernelSizing::default());
    let terrain = generator.generate(&NoiseField::new(99), Window::new(-half, -half, n, n));

    println!("terrain {}x{}: overall h = {:.2}", n, n, terrain.std_dev());
    rrs::io::try_write_ppm(File::create("sensor_field.ppm").expect("create"), &terrain)
        .expect("write PPM");

    // Link budgets: centre node to a node in each ring group. Grid unit
    // = 1 m, 2.4 GHz, 2 m masts.
    let f_hz = 2.4e9;
    let centre = (half as f64, half as f64); // grid coords of the origin
    println!("\nlink budget from the centre sensor (2.4 GHz, 2 m masts),");
    println!("averaged over the three nodes of each ring group and 5 ranges each:");
    println!(
        "{:<22} {:>9} {:>11} {:>14} {:>12}",
        "target cell", "dist (m)", "FSPL (dB)", "mean diffr (dB)", "total (dB)"
    );
    for (label, group_points) in [
        ("smooth cell (i=1..3)", [1usize, 2, 3]),
        ("medium cell (i=4..6)", [4, 5, 6]),
        ("rough cell (i=7..9)", [7, 8, 9]),
    ] {
        let mut fs = 0.0;
        let mut diff = 0.0;
        let mut dist = 0.0;
        let mut count = 0.0;
        for i in group_points {
            let th = std::f64::consts::TAU * i as f64 / 9.0;
            for k in 0..5 {
                let r = (0.9 + 0.1 * k as f64) * ring;
                let target = (centre.0 + r * th.cos(), centre.1 + r * th.sin());
                let profile = extract_profile(&terrain, centre, target, 200);
                let sweep = link_budget_sweep(&profile, 2.0, 2.0, f_hz, 199, 1);
                let s = sweep.last().expect("sweep sample");
                fs += s.free_space_db;
                diff += s.diffraction_db;
                dist += s.distance_m;
                count += 1.0;
            }
        }
        println!(
            "{:<22} {:>9.0} {:>11.1} {:>14.1} {:>12.1}",
            label,
            dist / count,
            fs / count,
            diff / count,
            (fs + diff) / count
        );
    }
    let fspl_only = free_space_loss_db(1.1 * ring, f_hz);
    println!(
        "\n(free space alone at {:.0} m is {:.1} dB; note the diffraction penalty tracks the\n \
         number of crests per path — i.e. 1/cl — more than the raw height h: the h=1.0,\n \
         cl=12.5 cells put more knife edges between the antennas than the taller but\n \
         longer-wavelength h=2.0, cl=25 cells. Exactly the kind of effect inhomogeneous\n \
         surface statistics exist to capture.)",
        1.1 * ring,
        fspl_only
    );
}
