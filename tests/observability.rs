//! Facade-level observability contract tests.
//!
//! Two promises hold the obs layer together: observation never steers
//! output (an enabled recorder produces the bit-identical surface the
//! silent path does), and every paper stage actually reports — kernel
//! build, window materialisation, the correlation inner loop, inhomo
//! kernel selection, streaming tiles. These tests pin both through the
//! public `rrs` facade, the way a downstream caller would wire it.

use rrs::obs::stage;
use rrs::prelude::*;

fn spectrum() -> Gaussian {
    Gaussian::new(SurfaceParams::isotropic(1.0, 5.0))
}

fn sizing() -> KernelSizing {
    KernelSizing::Auto { factor: 6.0, min: 16, max: 64 }
}

/// Enabled vs disabled recorder: bit-identical homogeneous surfaces, and
/// the enabled run reports every homogeneous pipeline stage.
#[test]
fn convolution_observation_is_inert_and_complete() {
    let s = spectrum();
    let noise = NoiseField::new(0xAB5E_ED);
    let win = Window::new(-7, 3, 48, 40);

    let silent = ConvolutionGenerator::new(&s, sizing()).generate(&noise, win);
    let rec = Recorder::enabled();
    let kernel = ConvolutionKernel::build_observed(&s, sizing(), &rec);
    let observed = ConvolutionGenerator::from_kernel(kernel)
        .with_context(GenContext::new().with_recorder(rec.clone()))
        .generate(&noise, win);
    assert_eq!(silent, observed, "enabled recorder changed the surface");

    let report = rec.report();
    for stage_name in [
        stage::KERNEL_AMPLITUDE,
        stage::KERNEL_DFT,
        stage::KERNEL_PERMUTE,
        stage::WINDOW_MATERIALISE,
        stage::CORRELATE,
    ] {
        assert!(
            report.durations.contains_key(stage_name),
            "missing duration stage {stage_name}"
        );
    }
    assert_eq!(
        report.counters.get(stage::CORRELATE_SAMPLES).copied(),
        Some((48 * 40) as u64),
        "correlate sample counter must equal the window area"
    );
}

/// Same contract for the inhomogeneous generator: identical output and a
/// pure/blended sample split that partitions the window.
#[test]
fn inhomogeneous_observation_is_inert_and_complete() {
    let layout = || {
        PlateLayout::new(
            vec![Plate {
                region: Region::Rect { x0: 0.0, y0: 0.0, x1: 20.0, y1: 40.0 },
                spectrum: SpectrumModel::gaussian(SurfaceParams::isotropic(0.3, 4.0)),
            }],
            Some(SpectrumModel::gaussian(SurfaceParams::isotropic(1.2, 6.0))),
            8.0,
        )
    };
    let noise = NoiseField::new(99);
    let win = Window::sized(40, 32);

    let silent = InhomogeneousGenerator::new(layout(), sizing()).generate(&noise, win);
    let rec = Recorder::enabled();
    let observed = InhomogeneousGenerator::new(layout(), sizing())
        .with_context(GenContext::new().with_recorder(rec.clone()))
        .generate(&noise, win);
    assert_eq!(silent, observed, "enabled recorder changed the surface");

    let report = rec.report();
    let pure = report.counters.get(stage::INHOMO_PURE_SAMPLES).copied().unwrap_or(0);
    let blended = report.counters.get(stage::INHOMO_BLENDED_SAMPLES).copied().unwrap_or(0);
    assert_eq!(pure + blended, (40 * 32) as u64, "pure + blended must cover the window");
    assert!(blended > 0, "a transition band this wide must blend somewhere");
}

/// Streaming: the context's recorder follows `with_context` into the
/// inner generator and counts tiles without perturbing the stream.
#[test]
fn strip_generator_observation_counts_tiles() {
    let s = spectrum();
    let mut silent = StripGenerator::new(&s, sizing(), 32, 7);
    let rec = Recorder::enabled();
    let mut observed = StripGenerator::new(&s, sizing(), 32, 7)
        .with_context(GenContext::new().with_recorder(rec.clone()));
    for _ in 0..3 {
        assert_eq!(silent.next_strip(16), observed.next_strip(16));
    }
    assert_eq!(rec.report().counters.get(stage::STRIP_TILES).copied(), Some(3));
}

/// A `GenContext` with an enabled recorder, applied through
/// `with_context`, gives the default context's bits and records stages.
#[test]
fn gen_context_threads_the_recorder_like_the_sugar_builder() {
    let s = spectrum();
    let noise = NoiseField::new(5);
    let win = Window::new(-3, 4, 20, 18);
    let rec = Recorder::enabled();
    let observed = ConvolutionGenerator::new(&s, sizing())
        .with_context(GenContext::new().with_recorder(rec.clone()));
    let default = ConvolutionGenerator::new(&s, sizing());
    assert_eq!(observed.generate(&noise, win), default.generate(&noise, win));
    assert!(rec.report().durations.contains_key(stage::WINDOW_MATERIALISE));
}

/// A disabled recorder threaded through every hook stays empty and the
/// report renders as valid empty JSON.
#[test]
fn disabled_recorder_reports_nothing() {
    let rec = Recorder::disabled();
    let s = spectrum();
    let kernel = ConvolutionKernel::build_observed(&s, sizing(), &rec);
    let _ = ConvolutionGenerator::from_kernel(kernel)
        .with_context(GenContext::new().with_recorder(rec.clone()))
        .generate(&NoiseField::new(1), Window::sized(16, 16));
    rec.add_counter(stage::STRIP_TILES, 1); // no-op when disabled
    let report = rec.report();
    assert!(report.counters.is_empty());
    assert!(report.durations.is_empty());
    assert_eq!(report.to_json(""), "{\n  \"counters\": {},\n  \"durations\": {}\n}");
}

/// An enabled recorder's report renders parseable JSON with the expected
/// histogram fields for a real run.
#[test]
fn enabled_report_json_has_histogram_fields() {
    let rec = Recorder::enabled();
    let s = spectrum();
    let kernel = ConvolutionKernel::build_observed(&s, sizing(), &rec);
    let _ = ConvolutionGenerator::from_kernel(kernel)
        .with_context(GenContext::new().with_recorder(rec.clone()))
        .generate(&NoiseField::new(1), Window::sized(16, 16));
    let json = rec.report().to_json("");
    for needle in ["\"counters\"", "\"durations\"", "\"count\":", "\"total_ns\":", "\"buckets\":"] {
        assert!(json.contains(needle), "report JSON missing {needle}:\n{json}");
    }
}
