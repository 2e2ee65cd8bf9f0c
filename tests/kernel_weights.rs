//! Kernel-weight bit identity.
//!
//! Building a kernel (eqns 34–35) is one 2-D DFT of the amplitude array.
//! On the Auto-sized lattices the paper's figures use (80², 100², 120²,
//! 150², 160², 200², …) that DFT runs through Bluestein's algorithm, so a
//! change to how the transform is scheduled — batching rows or columns,
//! another instruction set, another worker count — must leave every
//! weight's bits alone. The hashes below are FNV-1a over the weights'
//! `f64` bit patterns, recorded from the scalar row/column transform.

use rrs::prelude::*;

fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in bits {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn hash(kernel: &ConvolutionKernel) -> u64 {
    fnv1a(kernel.weights().as_slice().iter().map(|v| v.to_bits()))
}

/// `(label, spectrum, lattice side)`: every family on the Auto-sized
/// lattices `8·cl` gives for the figures' correlation lengths, plus the
/// power-of-two 128² for the radix-2 path.
fn cases() -> Vec<(String, SpectrumModel, usize)> {
    let mut out = Vec::new();
    for side in [80usize, 96, 100, 120, 128, 150, 160, 200] {
        let p = SurfaceParams::isotropic(1.5, side as f64 / 8.0);
        for (family, s) in [
            ("gaussian", SpectrumModel::gaussian(p)),
            ("exponential", SpectrumModel::exponential(p)),
            ("power_law", SpectrumModel::power_law(p, 2.0)),
        ] {
            out.push((format!("{family}/{side}"), s, side));
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("gaussian/80", 0x990e0c7368a1a4a6),
    ("exponential/80", 0xe04bef061b517457),
    ("power_law/80", 0xc02424bbf5b0934c),
    ("gaussian/96", 0xee3a520cdae30d5a),
    ("exponential/96", 0xff448ea4df430845),
    ("power_law/96", 0x5ad5afbe609fff30),
    ("gaussian/100", 0xf66ba2256564a293),
    ("exponential/100", 0x9b4fb6e084269687),
    ("power_law/100", 0x721bd9adc69ddbfc),
    ("gaussian/120", 0x3da010b2efd5390a),
    ("exponential/120", 0xf7ba92e4808e7213),
    ("power_law/120", 0xd1d526089f26c7ee),
    ("gaussian/128", 0xc4d2f4cc7866af86),
    ("exponential/128", 0x984b35edf484edfc),
    ("power_law/128", 0x73ce8982468d4382),
    ("gaussian/150", 0x2a26f158659e19af),
    ("exponential/150", 0x87b4556b3c776105),
    ("power_law/150", 0xdf5d94ae6b774a01),
    ("gaussian/160", 0x0cf65bd48cf20913),
    ("exponential/160", 0x6cee6142d94e0ba9),
    ("power_law/160", 0xacfc4f2f498b0fcf),
    ("gaussian/200", 0xfe5383cbfe0704e6),
    ("exponential/200", 0x05a71e3e74c35cff),
    ("power_law/200", 0x38863207905d64df),
    ("gaussian/96x150", 0x1e8e277c17c00f93),
    ("exponential/160/truncated", 0x0427fce6de21274d),
];

#[test]
fn kernel_weights_keep_their_hashes() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (label, s, side) in cases() {
        let k = ConvolutionKernel::build(&s, KernelSizing::default());
        assert_eq!(k.extent(), (side, side), "{label}: Auto sizing picks the lattice");
        got.push((label, hash(&k)));
    }
    // An anisotropic, non-square lattice: 96 × 150.
    let s = SpectrumModel::gaussian(SurfaceParams::new(1.0, 12.0, 18.75));
    let k = ConvolutionKernel::build(&s, KernelSizing::default());
    assert_eq!(k.extent(), (96, 150));
    got.push(("gaussian/96x150".into(), hash(&k)));
    // A truncated kernel, as the figures build them.
    let s = SpectrumModel::exponential(SurfaceParams::isotropic(2.0, 20.0));
    let k = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(0.01);
    got.push(("exponential/160/truncated".into(), hash(&k)));

    assert_eq!(got.len(), GOLDEN.len(), "one golden hash per case");
    for ((label, h), (want_label, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, want_label);
        assert_eq!(h, want, "{label}: kernel weights changed bits");
    }
}
