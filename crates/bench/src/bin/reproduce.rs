//! Regenerates every figure and quantitative claim of the paper.
//!
//! ```text
//! reproduce [--fig 1|2|3|4|all] [--claim c1|c2|c3|c4|all]
//!           [--scale 0.25] [--eps 0.01] [--seed 42] [--out out]
//! ```
//!
//! With no selection arguments, everything runs. Figures are written as
//! PGM/PPM images plus gnuplot matrices under `--out`, and a
//! paper-target-vs-measured validation table is printed for every
//! homogeneous sub-region (the data recorded in EXPERIMENTS.md).
//! `--scale 1.0` is the paper's full parameterisation; the default 0.25
//! keeps a laptop run in seconds while preserving every shape.

use rrs_bench::figures::{fig1, fig2, fig3, fig4, Figure};
use rrs_grid::Window;
use rrs_spectrum::{
    verify_weight_dft, Exponential, Gaussian, GridSpec, PowerLaw, SurfaceParams,
};
use rrs_stats::Moments;
use rrs_surface::{
    ConvBackend, ConvolutionGenerator, ConvolutionKernel, DirectDftGenerator, GenContext,
    KernelSizing, NoiseField, StripGenerator,
};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Options {
    figs: Vec<u32>,
    claims: Vec<u32>,
    scale: f64,
    eps: f64,
    seed: u64,
    reps: u64,
    out: PathBuf,
}

fn parse_args() -> Options {
    let mut opts = Options {
        figs: vec![],
        claims: vec![],
        scale: 0.25,
        eps: 0.01,
        seed: 42,
        reps: 6,
        out: PathBuf::from("out"),
    };
    let mut picked_any = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> &str {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value after {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--fig" => {
                picked_any = true;
                let v = need(i);
                if v == "all" {
                    opts.figs = vec![1, 2, 3, 4];
                } else {
                    opts.figs.push(v.parse().expect("--fig takes 1..4 or all"));
                }
                i += 2;
            }
            "--claim" => {
                picked_any = true;
                let v = need(i);
                if v == "all" {
                    opts.claims = vec![1, 2, 3, 4];
                } else {
                    let v = v.trim_start_matches('c');
                    opts.claims.push(v.parse().expect("--claim takes c1..c4 or all"));
                }
                i += 2;
            }
            "--scale" => {
                opts.scale = need(i).parse().expect("--scale takes a float");
                i += 2;
            }
            "--eps" => {
                opts.eps = need(i).parse().expect("--eps takes a float");
                i += 2;
            }
            "--seed" => {
                opts.seed = need(i).parse().expect("--seed takes an integer");
                i += 2;
            }
            "--reps" => {
                opts.reps = need(i).parse().expect("--reps takes an integer");
                i += 2;
            }
            "--out" => {
                opts.out = PathBuf::from(need(i));
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: reproduce [--fig 1|2|3|4|all] [--claim c1..c4|all] \
                     [--scale S] [--eps E] [--seed N] [--out DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    if !picked_any {
        opts.figs = vec![1, 2, 3, 4];
        opts.claims = vec![1, 2, 3, 4];
    }
    opts
}

fn main() {
    let opts = parse_args();
    std::fs::create_dir_all(&opts.out).expect("cannot create output directory");
    println!(
        "reproduce: scale={} eps={} seed={} out={}",
        opts.scale,
        opts.eps,
        opts.seed,
        opts.out.display()
    );
    for &f in &opts.figs {
        let figure = match f {
            1 => fig1(opts.scale, opts.eps, opts.seed),
            2 => fig2(opts.scale, opts.eps, opts.seed),
            3 => fig3(opts.scale, opts.eps, opts.seed),
            4 => fig4(opts.scale, opts.eps, opts.seed),
            _ => {
                eprintln!("no such figure: {f}");
                continue;
            }
        };
        run_figure(&figure, &opts.out, opts.reps);
    }
    for &c in &opts.claims {
        match c {
            1 => claim_c1(),
            2 => claim_c2(opts.seed),
            3 => claim_c3(opts.seed),
            4 => claim_c4(opts.seed),
            _ => eprintln!("no such claim: c{c}"),
        }
    }
}

fn run_figure(figure: &Figure, out: &Path, reps: u64) {
    println!("\n=== {} — {}", figure.id, figure.title);
    let t0 = Instant::now();
    let surface = figure.generate();
    let dt = t0.elapsed();
    println!(
        "generated {}x{} in {:.2?} (overall h_hat = {:.3})",
        figure.nx,
        figure.ny,
        dt,
        surface.std_dev()
    );
    let base = out.join(figure.id);
    rrs_io::try_write_pgm(File::create(base.with_extension("pgm")).unwrap(), &surface).unwrap();
    rrs_io::try_write_ppm(File::create(base.with_extension("ppm")).unwrap(), &surface).unwrap();
    rrs_io::write_gnuplot_matrix(
        File::create(base.with_extension("dat")).unwrap(),
        &surface,
        &figure.title,
    )
    .unwrap();

    println!(
        "validation over {reps} independent realisations:"
    );
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>9} {:>9} {:>7} {:>7}",
        "region", "h", "h_hat", "err%", "cl_1/e", "cl_hat", "skew", "kurt"
    );
    let mut csv = String::from("region,h_target,h_measured,h_rel_err,clx_target,clx_measured\n");
    for (name, r) in figure.validate_ensemble(reps) {
        let cl_hat = r
            .clx_measured
            .map(|v| format!("{v:9.2}"))
            .unwrap_or_else(|| "      n/a".into());
        println!(
            "{:<28} {:>8.3} {:>8.3} {:>7.1}% {:>9.1} {} {:>7.2} {:>7.2}",
            name,
            r.target.h,
            r.h_measured,
            100.0 * r.h_rel_error(),
            r.clx_expected,
            cl_hat,
            r.skewness,
            r.kurtosis
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            name,
            r.target.h,
            r.h_measured,
            r.h_rel_error(),
            r.clx_expected,
            r.clx_measured.map(|v| v.to_string()).unwrap_or_default()
        ));
    }
    std::fs::write(out.join(format!("{}_validation.csv", figure.id)), csv).unwrap();
}

/// Claim C1 (§2.2): `DFT(w)` reproduces the closed-form autocorrelation.
fn claim_c1() {
    println!("\n=== claim C1: DFT(weight array) reproduces the autocorrelation (paper §2.2)");
    let p = SurfaceParams::isotropic(1.0, 10.0);
    let spec = GridSpec::unit(256, 256);
    let cases: Vec<(&str, f64)> = vec![
        ("Gaussian", verify_weight_dft(&Gaussian::new(p), spec)),
        ("Power-Law N=2", verify_weight_dft(&PowerLaw::new(p, 2.0), spec)),
        ("Power-Law N=3", verify_weight_dft(&PowerLaw::new(p, 3.0), spec)),
        ("Exponential", verify_weight_dft(&Exponential::new(p), spec)),
    ];
    println!("{:<16} {:>14}", "spectrum", "max |err|/h^2");
    for (name, err) in cases {
        println!("{name:<16} {err:>14.3e}");
    }
}

/// Claim C2 (§2.4): the convolution method is statistically equivalent to
/// the direct DFT method.
fn claim_c2(seed: u64) {
    println!("\n=== claim C2: convolution method ≡ direct DFT method");
    let p = SurfaceParams::isotropic(1.0, 8.0);
    let s = Gaussian::new(p);
    let n = 256usize;
    let reps = 8u64;
    let direct = DirectDftGenerator::new(s, GridSpec::unit(n, n));
    let conv = ConvolutionGenerator::new(&s, KernelSizing::default());
    let mut m_direct = Moments::new();
    let mut m_conv = Moments::new();
    for r in 0..reps {
        m_direct.push_all(direct.generate(seed + r).as_slice());
        m_conv
            .push_all(conv.generate(&NoiseField::new(seed + r), Window::sized(n, n)).as_slice());
    }
    println!("{:<14} {:>10} {:>10} {:>10}", "method", "mean", "h_hat", "kurtosis");
    for (name, m) in [("direct DFT", m_direct), ("convolution", m_conv)] {
        println!(
            "{:<14} {:>10.4} {:>10.4} {:>10.3}",
            name,
            m.mean(),
            m.std_dev(),
            m.kurtosis()
        );
    }
    println!("target          {:>10.4} {:>10.4} {:>10.3}", 0.0, p.h, 3.0);
}

/// Claim C3 (§4): run time scales with the weighting-array size, i.e.
/// with correlation length. Timed on the `Direct` backend — the paper's
/// per-sample convolution, whose cost the claim is about.
fn claim_c3(seed: u64) {
    println!("\n=== claim C3: computation time grows with correlation length");
    println!(
        "{:>6} {:>12} {:>14} {:>14}",
        "cl", "kernel", "t(full)", "t(trunc 1e-2)"
    );
    let n = 192usize;
    let noise = NoiseField::new(seed);
    for cl in [5.0, 10.0, 20.0, 40.0] {
        let s = Gaussian::new(SurfaceParams::isotropic(1.0, cl));
        let kernel = ConvolutionKernel::build(&s, KernelSizing::default());
        let full_extent = kernel.extent();
        let t0 = Instant::now();
        let _ = ConvolutionGenerator::from_kernel(kernel.clone())
            .with_backend(ConvBackend::Direct)
            .generate(&noise, Window::sized(n, n));
        let t_full = t0.elapsed();
        let trunc = kernel.truncated(1e-2);
        let t1 = Instant::now();
        let _ = ConvolutionGenerator::from_kernel(trunc)
            .with_backend(ConvBackend::Direct)
            .generate(&noise, Window::sized(n, n));
        let t_trunc = t1.elapsed();
        println!(
            "{:>6} {:>7}x{:<4} {:>14.2?} {:>14.2?}",
            cl, full_extent.0, full_extent.1, t_full, t_trunc
        );
    }
}

/// Claim C4 (§2.4): arbitrarily long surfaces by successive computations,
/// seamlessly — exactly, on the `Direct` backend (the FFT engine plans
/// each window's tiles separately, so its seams agree within roundoff).
fn claim_c4(seed: u64) {
    println!("\n=== claim C4: streaming strips are seamless and stationary");
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let mut sg = StripGenerator::new(&s, KernelSizing::default(), 128, seed)
        .with_context(GenContext::new().with_backend(ConvBackend::Direct));
    let tile = 256usize;
    let tiles = 8usize;
    let t0 = Instant::now();
    let mut stds = Vec::new();
    for _ in 0..tiles {
        let strip = sg.next_strip(tile);
        stds.push(strip.std_dev());
    }
    let dt = t0.elapsed();
    // Seam check: regenerate a window straddling the first boundary and
    // compare against freshly generated halves.
    let straddle = sg.strip_at(tile as i64 - 32, 64);
    let left = sg.strip_at(tile as i64 - 32, 32);
    let mut max_err: f64 = 0.0;
    for iy in 0..128 {
        for ix in 0..32 {
            max_err = max_err.max((straddle.get(ix, iy) - left.get(ix, iy)).abs());
        }
    }
    println!(
        "{} tiles of {}x128 in {:.2?}; per-tile h_hat: {:?}",
        tiles,
        tile,
        dt,
        stds.iter().map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );
    println!("seam reconstruction max |err| = {max_err:.3e} (0 = exact)");
}
