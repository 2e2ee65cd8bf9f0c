//! Streaming generation of an arbitrarily long surface — the convolution
//! method's headline advantage over the direct DFT method (paper §2.4).
//!
//! The strip generator produces consecutive tiles of an unbounded-in-x
//! surface; tiles join seamlessly because the noise lattice is a pure
//! function of absolute coordinates. A direct-DFT generator would need
//! the whole surface in memory at once.
//!
//! ```text
//! cargo run --release --example long_strip
//! ```

use rrs::prelude::*;
use rrs::stats::Moments;

fn main() {
    let spectrum = Exponential::new(SurfaceParams::isotropic(1.0, 10.0));
    let height = 128usize;
    let tile = 512usize;
    let tiles = 16usize;
    // Auto picks the overlap-save FFT engine for this kernel size and
    // reuses its cached kernel spectrum across every tile below.
    let mut gen = StripGenerator::new(&spectrum, KernelSizing::default(), height, 31)
        .with_context(GenContext::new().with_backend(ConvBackend::Auto));

    println!(
        "streaming a {}-sample-high surface in {} tiles of width {} (total length {})",
        height,
        tiles,
        tile,
        tiles * tile
    );
    let mut all = Moments::new();
    println!("{:>6} {:>10} {:>10} {:>10}", "tile", "mean", "h_hat", "min..max");
    for i in 0..tiles {
        let strip = gen.next_strip(tile);
        let mut m = Moments::new();
        m.push_all(strip.as_slice());
        all = all.merge(&m);
        println!(
            "{:>6} {:>10.4} {:>10.4} {:>6.2}..{:.2}",
            i,
            m.mean(),
            m.std_dev(),
            strip.min(),
            strip.max()
        );
    }
    println!(
        "\noverall: {} samples, mean {:+.4}, h_hat {:.4} (target 1.0)",
        all.count(),
        all.mean(),
        all.std_dev()
    );

    // Seamlessness: a window straddling a tile boundary equals the
    // corresponding pieces of the sequential tiles. Under the FFT
    // backend the three requests use different tile plans, so they
    // agree to floating-point roundoff; under ConvBackend::Direct the
    // reconstruction is exactly 0.
    let boundary = tile as i64;
    let straddle = gen.strip_at(boundary - 8, 16);
    let left = gen.strip_at(boundary - 8, 8);
    let right = gen.strip_at(boundary, 8);
    let mut max_err: f64 = 0.0;
    for iy in 0..height {
        for ix in 0..8 {
            max_err = max_err.max((straddle.get(ix, iy) - left.get(ix, iy)).abs());
            max_err = max_err.max((straddle.get(ix + 8, iy) - right.get(ix, iy)).abs());
        }
    }
    println!("tile-boundary reconstruction error: {max_err:.3e} (seamless to roundoff)");
    assert!(max_err < 1e-9, "seams must agree to roundoff, got {max_err:e}");
}
