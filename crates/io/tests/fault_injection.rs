//! Fault-injected decoding properties (feature `failpoints`).
//!
//! The contract under test: every decoder in `rrs-io` fails *closed*.
//! Whatever a fault does to the byte stream — truncation at any offset,
//! any single bit flip, a stomped magic, a torn write — decoding either
//! returns the original grid bit-exactly or returns an error. Never a
//! panic, never unflagged garbage.
#![cfg(feature = "failpoints")]

use rrs_check::{props, CaseRng};
use rrs_error::ErrorKind;
use rrs_grid::Grid2;
use rrs_io::checkpoint::{self, StreamCheckpoint};
use rrs_io::fault::{flip_bit, stomp_magic, truncated, FailingReader, FailingWriter};
use rrs_io::{try_read_snapshot, try_write_snapshot};

fn sample_grid(rng: &mut CaseRng, nx: usize, ny: usize) -> Grid2<f64> {
    Grid2::from_fn(nx, ny, |_, _| rng.next_f64() * 2.0 - 1.0)
}

fn encode(grid: &Grid2<f64>) -> Vec<u8> {
    let mut buf = Vec::new();
    try_write_snapshot(&mut buf, grid).unwrap();
    buf
}

props! {
    #![cases = 64]

    fn truncation_at_any_offset_is_flagged(
        nx in 1usize..10, ny in 1usize..10, frac in 0.0f64..1.0,
        grid_seed in rrs_check::any::<u64>(),
    ) {
        let grid = sample_grid(&mut CaseRng::new(grid_seed), nx, ny);
        let clean = encode(&grid);
        let keep = (frac * clean.len() as f64) as usize;
        rrs_check::assume!(keep < clean.len());
        let err = try_read_snapshot(truncated(&clean, keep).as_slice())
            .expect_err("truncated snapshot must not decode");
        assert_eq!(err.kind(), ErrorKind::CorruptSnapshot, "keep={keep}: {err}");
    }

    fn any_single_bit_flip_is_flagged_or_harmless(
        nx in 1usize..8, ny in 1usize..8, bit_pick in rrs_check::any::<u64>(),
        grid_seed in rrs_check::any::<u64>(),
    ) {
        let grid = sample_grid(&mut CaseRng::new(grid_seed), nx, ny);
        let mut buf = encode(&grid);
        let bit = (bit_pick % (buf.len() as u64 * 8)) as usize;
        flip_bit(&mut buf, bit);
        // Magic, shape, data and crc are all covered: a flip anywhere must
        // surface as an error — there is no harmless bit in this format.
        let err = try_read_snapshot(buf.as_slice())
            .expect_err("bit flip must not decode silently");
        assert_eq!(err.kind(), ErrorKind::CorruptSnapshot, "bit {bit}: {err}");
    }

    fn stomped_magic_and_stomped_crc_are_flagged(
        nx in 1usize..8, ny in 1usize..8, grid_seed in rrs_check::any::<u64>(),
    ) {
        let grid = sample_grid(&mut CaseRng::new(grid_seed), nx, ny);
        let clean = encode(&grid);

        let mut bad_magic = clean.clone();
        stomp_magic(&mut bad_magic);
        let err = try_read_snapshot(bad_magic.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        let mut bad_crc = clean.clone();
        let n = bad_crc.len();
        for b in &mut bad_crc[n - 8..] {
            *b = !*b;
        }
        let err = try_read_snapshot(bad_crc.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // And the clean bytes still round-trip, so the errors above are
        // the corruption's doing, not the codec's.
        assert_eq!(try_read_snapshot(clean.as_slice()).unwrap(), grid);
    }

    fn torn_write_is_flagged_on_read(
        nx in 1usize..8, ny in 1usize..8, budget_pick in rrs_check::any::<u64>(),
        grid_seed in rrs_check::any::<u64>(),
    ) {
        let grid = sample_grid(&mut CaseRng::new(grid_seed), nx, ny);
        let full_len = encode(&grid).len();
        let budget = (budget_pick % full_len as u64) as usize;
        // The writer dies mid-stream: the caller sees an Io error...
        let mut fw = FailingWriter::new(Vec::new(), budget);
        let err = try_write_snapshot(&mut fw, &grid).expect_err("torn write must error");
        assert_eq!(err.kind(), ErrorKind::Io, "budget={budget}: {err}");
        // ...and the torn bytes it left behind never decode silently.
        let torn = fw.into_inner();
        assert_eq!(torn.len(), budget);
        let err = try_read_snapshot(torn.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::CorruptSnapshot, "budget={budget}: {err}");
    }

    fn failing_reader_surfaces_as_io(
        nx in 1usize..8, ny in 1usize..8, grid_seed in rrs_check::any::<u64>(),
        budget_pick in rrs_check::any::<u64>(),
    ) {
        let grid = sample_grid(&mut CaseRng::new(grid_seed), nx, ny);
        let clean = encode(&grid);
        let budget = (budget_pick % clean.len() as u64) as usize;
        let err = try_read_snapshot(FailingReader::new(clean.as_slice(), budget))
            .expect_err("failing reader must error");
        assert_eq!(err.kind(), ErrorKind::Io, "budget={budget}: {err}");
    }

    fn checkpoint_corruption_is_flagged(
        seed in rrs_check::any::<u64>(), height in 1u64..1000,
        cursor_bits in rrs_check::any::<u64>(), bit_pick in rrs_check::any::<u64>(),
    ) {
        let cp = StreamCheckpoint { seed, height, cursor: cursor_bits as i64 };
        let mut buf = Vec::new();
        checkpoint::write_checkpoint(&mut buf, &cp).unwrap();
        let bit = (bit_pick % (buf.len() as u64 * 8)) as usize;
        flip_bit(&mut buf, bit);
        let err = checkpoint::read_checkpoint(buf.as_slice())
            .expect_err("corrupt checkpoint must not decode");
        assert_eq!(err.kind(), ErrorKind::CorruptSnapshot, "bit {bit}: {err}");
    }

    fn mid_export_fault_never_leaves_a_torn_file(
        nx in 1usize..8, ny in 1usize..8, budget_pick in rrs_check::any::<u64>(),
        grid_seed in rrs_check::any::<u64>(), case in rrs_check::any::<u64>(),
    ) {
        // A fault-injected export through the atomic writer must leave the
        // destination exactly as it was: the previous good snapshot (if
        // any) intact, and never a decodable-but-wrong or torn file.
        let old = sample_grid(&mut CaseRng::new(grid_seed), nx, ny);
        let new = sample_grid(&mut CaseRng::new(grid_seed ^ 0x5DEECE66D), nx, ny);
        let full_len = encode(&new).len();
        let budget = (budget_pick % full_len as u64) as usize;
        let dir = std::env::temp_dir()
            .join(format!("rrs_torn_{}_{case:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("field.snap");
        rrs_io::try_write_snapshot_file(&dest, &old, &rrs_obs::Recorder::disabled()).unwrap();

        let err = rrs_io::write_atomic(&dest, |w| {
            try_write_snapshot(&mut FailingWriter::new(&mut *w, budget), &new)
        })
        .expect_err("fault-injected export must error");
        assert_eq!(err.kind(), ErrorKind::Io, "budget={budget}: {err}");

        // Previous content survives bit-exactly; no tmp leftovers.
        let survivor = rrs_io::try_read_snapshot(
            std::fs::File::open(&dest).unwrap(),
        ).expect("destination must still hold the previous good snapshot");
        assert_eq!(survivor, old);
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(stray.is_empty(), "tmp leftovers: {stray:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

mod retry_under_injected_faults {
    use rrs_chaos::ChaosInjector;
    use rrs_error::{Budget, ErrorKind};
    use rrs_io::checkpoint::{self, StreamCheckpoint, CHECKPOINT_LEN};
    use rrs_io::fault::FailingWriter;
    use rrs_io::retry::{RetryPolicy, Sleeper};
    use rrs_obs::{stage, Recorder};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    /// Records backoffs instead of sleeping, so the suite runs instantly.
    struct RecordingSleeper(RefCell<Vec<Duration>>);

    impl Sleeper for RecordingSleeper {
        fn sleep(&self, d: Duration) {
            self.0.borrow_mut().push(d);
        }
    }

    fn cp() -> StreamCheckpoint {
        StreamCheckpoint { seed: 7, height: 64, cursor: 1024 }
    }

    #[test]
    fn transient_injected_faults_recover_within_the_attempt_budget() {
        // The first two attempts hit a FailingWriter that dies mid-record;
        // the third writes cleanly. The retry loop must surface success,
        // and the obs report must carry the full attempt/backoff history.
        let attempt = AtomicU32::new(0);
        let rec = Recorder::enabled();
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        let out = RefCell::new(Vec::new());
        RetryPolicy::default()
            .run(
                &rec,
                &sleeper,
                &Budget::unlimited(),
                &ChaosInjector::disabled(),
                &mut || {
                    let n = attempt.fetch_add(1, Ordering::SeqCst);
                    if n < 2 {
                        // Fault: the writer accepts half the record, then dies.
                        checkpoint::write_checkpoint(
                            &mut FailingWriter::new(Vec::new(), CHECKPOINT_LEN / 2),
                            &cp(),
                        )
                    } else {
                        checkpoint::write_checkpoint(&mut *out.borrow_mut(), &cp())
                    }
                },
            )
            .expect("transient faults below max_attempts must recover");
        assert_eq!(checkpoint::read_checkpoint(out.borrow().as_slice()).unwrap(), cp());
        let report = rec.report();
        assert_eq!(report.counter(stage::RETRY_ATTEMPTS), 3, "all attempts counted");
        assert_eq!(report.durations[stage::RETRY_BACKOFF].count, 2);
        assert_eq!(
            *sleeper.0.borrow(),
            vec![Duration::from_millis(10), Duration::from_millis(20)],
            "deterministic exponential backoff schedule"
        );
    }

    #[test]
    fn persistent_injected_faults_fail_closed_with_history() {
        let rec = Recorder::enabled();
        let sleeper = RecordingSleeper(RefCell::new(Vec::new()));
        let err = RetryPolicy::default()
            .run(
                &rec,
                &sleeper,
                &Budget::unlimited(),
                &ChaosInjector::disabled(),
                &mut || checkpoint::write_checkpoint(FailingWriter::new(Vec::new(), 0), &cp()),
            )
            .expect_err("a persistent fault must fail closed");
        assert_eq!(err.kind(), ErrorKind::Io);
        let msg = err.to_string();
        assert!(msg.contains("after 3 attempts"), "{msg}");
        assert!(msg.contains("attempt 1") && msg.contains("attempt 2"), "{msg}");
        assert_eq!(rec.report().counter(stage::RETRY_ATTEMPTS), 3);
    }
}
