//! Panic containment across the parallel layer, exercised from the
//! facade: a worker that panics mid-band must surface as a typed
//! `RrsError::WorkerPanicked` naming the band — never abort the process
//! or poison the other bands.

use rrs::chaos::ChaosInjector;
use rrs::error::{Budget, ErrorKind, RrsError};
use rrs::obs::Recorder;
use rrs::par::try_par_rows;

const NX: usize = 16;
const NY: usize = 12;

#[test]
fn panicking_worker_surfaces_as_typed_error_naming_the_band() {
    let mut data = vec![0.0f64; NX * NY];
    let (obs, budget, chaos) = (Recorder::disabled(), Budget::unlimited(), ChaosInjector::disabled());
    let err = try_par_rows(&mut data, NX, 3, &obs, &budget, &chaos, |row0, _rows| {
        if row0 >= NY / 2 {
            panic!("injected fault in band starting at row {row0}");
        }
    })
    .expect_err("a panicking worker must produce an error");

    assert_eq!(err.kind(), ErrorKind::WorkerPanicked, "{err}");
    match &err {
        RrsError::WorkerPanicked { payload, .. } => {
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("unexpected variant: {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("band"), "message must name the band: {msg}");
}
