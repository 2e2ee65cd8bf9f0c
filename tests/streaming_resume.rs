//! Crash-safe streaming: a sequential strip stream checkpointed after
//! every tile can be killed at ANY tile boundary and resumed from the
//! checkpoint alone — (seed, height, cursor) — producing a surface
//! bit-identical to the uninterrupted run. This works because the noise
//! lattice is a pure function of (seed, ix, iy) (paper §2.4): no
//! generator state beyond the cursor needs to survive the crash.

use rrs::io::{read_checkpoint, write_checkpoint, StreamCheckpoint};
use rrs::spectrum::{Gaussian, GridSpec, SurfaceParams};
use rrs::surface::{ConvolutionGenerator, GenContext, KernelSizing, StripGenerator};
use rrs_grid::Grid2;

const NY: usize = 24;
const STRIP_W: usize = 8;
const N_STRIPS: usize = 6;
const SEED: u64 = 0xC0FFEE;

fn generator() -> ConvolutionGenerator {
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 4.0));
    ConvolutionGenerator::new(&s, KernelSizing::Explicit(GridSpec::unit(16, 16)))
        .with_context(GenContext::new().with_workers(2))
}

/// One "process": resumes from `cp` (or a fresh stream when `None`),
/// produces strips until `kill_after` strips have been emitted in this
/// incarnation or the stream reaches `N_STRIPS`, durably writing a
/// checkpoint after every strip. Returns the strips it emitted and the
/// last durable checkpoint bytes.
fn run_process(
    cp: Option<&[u8]>,
    kill_after: usize,
) -> (Vec<Grid2<f64>>, Vec<u8>) {
    let (mut sg, mut durable) = match cp {
        None => {
            let sg = StripGenerator::from_generator(generator(), NY, SEED);
            // Initial checkpoint: an empty stream at cursor 0.
            let mut buf = Vec::new();
            write_checkpoint(
                &mut buf,
                &StreamCheckpoint { seed: sg.seed(), height: sg.height() as u64, cursor: sg.cursor() },
            )
            .unwrap();
            (sg, buf)
        }
        Some(bytes) => {
            // The restarted process knows ONLY the checkpoint and the
            // spectrum configuration — no in-memory state survived.
            let cp = read_checkpoint(bytes).unwrap();
            let mut sg =
                StripGenerator::try_from_generator(generator(), cp.height as usize, cp.seed)
                    .expect("checkpointed height is valid");
            sg.seek(cp.cursor);
            (sg, bytes.to_vec())
        }
    };

    let mut strips = Vec::new();
    while (sg.cursor() as usize) < N_STRIPS * STRIP_W && strips.len() < kill_after {
        strips.push(sg.next_strip(STRIP_W));
        durable.clear();
        write_checkpoint(
            &mut durable,
            &StreamCheckpoint { seed: sg.seed(), height: sg.height() as u64, cursor: sg.cursor() },
        )
        .unwrap();
    }
    (strips, durable)
}

#[test]
fn kill_at_any_tile_then_resume_is_bit_identical() {
    // Reference: one uninterrupted process.
    let (reference, _) = run_process(None, usize::MAX);
    assert_eq!(reference.len(), N_STRIPS);

    for kill_at in 0..=N_STRIPS {
        // First incarnation dies after `kill_at` strips...
        let (mut strips, cp) = run_process(None, kill_at);
        // ...second incarnation resumes from the durable checkpoint.
        let (rest, _) = run_process(Some(&cp), usize::MAX);
        strips.extend(rest);

        assert_eq!(strips.len(), N_STRIPS, "kill_at={kill_at}");
        for (i, (got, want)) in strips.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "kill_at={kill_at}: strip {i} differs after resume"
            );
        }
    }
}

#[test]
fn double_crash_still_resumes_exactly() {
    let (reference, _) = run_process(None, usize::MAX);

    // Crash after 2 strips, resume, crash again after 1 more, resume.
    let (mut strips, cp1) = run_process(None, 2);
    let (more, cp2) = run_process(Some(&cp1), 1);
    strips.extend(more);
    let (rest, _) = run_process(Some(&cp2), usize::MAX);
    strips.extend(rest);

    assert_eq!(strips.len(), N_STRIPS);
    for (got, want) in strips.iter().zip(&reference) {
        assert_eq!(got.as_slice(), want.as_slice());
    }
}

#[test]
fn checkpoint_survives_serialization_round_trip_only_if_intact() {
    let (_, cp) = run_process(None, 3);
    let decoded = read_checkpoint(cp.as_slice()).unwrap();
    assert_eq!(decoded.cursor, 3 * STRIP_W as i64);
    assert_eq!(decoded.seed, SEED);
    assert_eq!(decoded.height, NY as u64);

    // A torn checkpoint write must be detected, not resumed from.
    let torn = &cp[..cp.len() - 1];
    let err = read_checkpoint(torn).unwrap_err();
    assert_eq!(err.kind(), rrs::error::ErrorKind::CorruptSnapshot, "{err}");
}
