//! Row-band fan-out overhead guard.
//!
//! `rrs-par` has one fan-out loop, and callers that arm nothing — no
//! polled budget, no chaos schedule, a disabled recorder — must pay
//! nothing over a hand-written one. This suite times the same cheap,
//! purely row-local fill four ways over the same static partition
//! (`split_range(ROWS, WORKERS)`):
//!
//! * `bare_scope` — a plain `std::thread::scope` band loop written here;
//! * `par_rows` — [`rrs_par::try_par_rows`] with nothing armed;
//! * `par_rows_budget_armed` — with a cancel token and a far-future
//!   deadline, so every band polls 8 times;
//! * `par_rows_chaos_armed` — with an armed but empty chaos schedule,
//!   so every band polls its fault site 8 times.
//!
//! The four run in [`paired`] reps of one block of [`CALLS_PER_BLOCK`]
//! calls each, `bare_scope` first in the rotation. A block's time is the
//! median of its calls, so one call that waits for a descheduled vCPU
//! does not move the block.
//!
//! **Fails** (exit code 1) if the median paired ratio of `par_rows` to
//! `bare_scope` is [`MAX_UNARMED_RATIO`] or more: the unarmed entry
//! point must cost what a bare spawn-and-join costs. The armed rows are
//! informational — they buy bounded-time cancellation and fault
//! injection and may cost a little. Full-generator comparisons
//! (unbudgeted vs armed-idle convolution) ride along, also
//! informational.
//!
//! Run with `cargo run --release -p rrs-bench --bin bench_runtime`;
//! writes `BENCH_runtime.json` (`RRS_BENCH_REPS` sets the pair count).

use rrs_bench::harness::{median_call_ns, paired, Bound};
use rrs_bench::Harness;
use rrs_chaos::{ChaosInjector, FaultSchedule};
use rrs_error::{Budget, CancelToken};
use rrs_grid::Window;
use rrs_obs::Recorder;
use rrs_spectrum::{Gaussian, SurfaceParams};
use rrs_surface::{ConvolutionGenerator, ConvolutionKernel, GenContext, KernelSizing, NoiseField};
use std::hint::black_box;
use std::time::Duration;

const N: usize = 192;
const ROW: usize = 256;
const ROWS: usize = 4096;
const WORKERS: usize = 2;
/// Paired reps when `RRS_BENCH_REPS` is unset.
const PAIRS: u64 = 21;
/// Calls per variant per rep: one call is about a millisecond. Blocks of
/// 8 calls, timed whole, let one slow spawn on the shared 2-vCPU host
/// move a pair's ratio anywhere from 0.4 to 3.4; the median of 32 calls
/// ignores a few slow ones and still pairs well.
const CALLS_PER_BLOCK: usize = 32;
/// Gate on the median paired `par_rows / bare_scope` ratio. Over 12
/// runs of this suite on the 2-vCPU bench host the median ratio read
/// 0.885–1.001 (per-pair ratios 0.59–2.10); 1.12 sits one whole spread
/// of those medians above the highest, so only a real per-band cost
/// fails it.
const MAX_UNARMED_RATIO: f64 = 1.12;

/// The band closure every variant runs: a cheap, purely row-local fill
/// so the measurement is dominated by the fan-out machinery rather than
/// arithmetic.
fn fill(row0: usize, band: &mut [f64]) {
    for (i, x) in band.iter_mut().enumerate() {
        *x = (row0 * ROW + i) as f64 * 1.0000001;
    }
}

/// The reference: spawn one scoped thread per band of the same static
/// partition and join them, with no containment or accounting.
fn bare_scope(buf: &mut [f64]) {
    let bands = rrs_par::split_range(ROWS, WORKERS);
    std::thread::scope(|s| {
        let mut rest = buf;
        for &(r0, r1) in &bands {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut((r1 - r0) * ROW);
            rest = tail;
            s.spawn(move || fill(r0, band));
        }
    });
}

fn main() {
    let mut h = Harness::new("runtime").with_reps(PAIRS);
    let pairs = h.reps() as usize;
    let obs = Recorder::disabled();
    let unlimited = Budget::unlimited();
    let armed = Budget::unlimited()
        .with_cancel_token(CancelToken::new())
        .with_timeout(Duration::from_secs(3600));
    let off = ChaosInjector::disabled();
    let empty_schedule = ChaosInjector::new(FaultSchedule::new(0));
    let rows = |buf: &mut [f64], budget: &Budget, chaos: &ChaosInjector| {
        rrs_par::try_par_rows(buf, ROW, WORKERS, &obs, budget, chaos, fill).unwrap();
    };

    // --- The fan-out loop, four ways, in paired reps. ---
    let mut buf = vec![0.0f64; ROW * ROWS];
    type Variant<'a> = (&'a str, &'a dyn Fn(&mut [f64]));
    let variants: [Variant; 4] = [
        ("bare_scope", &bare_scope),
        ("par_rows", &|b| rows(b, &unlimited, &off)),
        ("par_rows_budget_armed", &|b| rows(b, &armed, &off)),
        ("par_rows_chaos_armed", &|b| rows(b, &unlimited, &empty_schedule)),
    ];
    for (_, run) in &variants {
        run(&mut buf); // warm-up
    }
    let p = paired(pairs, variants.len(), |i| {
        median_call_ns(CALLS_PER_BLOCK, || {
            variants[i].1(&mut buf);
            black_box(buf[0]);
        })
    });
    for ((name, _), samples) in variants.iter().zip(p.times) {
        h.record(&format!("runtime/{name}"), Some((ROW * ROWS) as u64), samples);
    }
    let mut free = true;
    for (i, (name, _)) in variants.iter().enumerate().skip(1) {
        let bound = if i == 1 { Bound::Below(MAX_UNARMED_RATIO) } else { Bound::Reported };
        free &= h.gate(&format!("runtime/{name}_over_bare_scope"), &p.ratios[i], bound);
    }

    // --- Full generator, informational. ---
    let s = Gaussian::new(SurfaceParams::isotropic(1.0, 8.0));
    let kernel = ConvolutionKernel::build(&s, KernelSizing::default()).truncated(1e-3);
    let noise = NoiseField::new(42);
    let win = Window::sized(N, N);

    let plain = ConvolutionGenerator::from_kernel(kernel.clone())
        .with_context(GenContext::new().with_workers(1));
    h.bench_elems("runtime/conv_no_budget", (N * N) as u64, || {
        black_box(plain.generate(&noise, win))
    });

    let budget = Budget::unlimited()
        .with_cancel_token(CancelToken::new())
        .with_timeout(Duration::from_secs(3600))
        .with_max_bytes(usize::MAX);
    let armed_gen = ConvolutionGenerator::from_kernel(kernel)
        .with_context(GenContext::new().with_workers(1).with_budget(budget));
    h.bench_elems("runtime/conv_armed_budget", (N * N) as u64, || {
        black_box(armed_gen.try_generate(&noise, win).unwrap())
    });

    // Cross-check while we are here: budgets must never steer output.
    assert_eq!(
        plain.generate(&noise, win),
        armed_gen.try_generate(&noise, win).unwrap(),
        "armed budget changed the surface"
    );

    let records = h.finish().expect("write BENCH_runtime.json");
    let min_of = |name: &str| {
        records
            .iter()
            .find(|r| r.name.ends_with(name))
            .map(|r| r.min_ns)
            .expect("record present")
    };
    let conv_ratio = min_of("conv_armed_budget") / min_of("conv_no_budget");
    println!("conv armed/no-budget (min-of-reps): {conv_ratio:.3}x  (informational)");
    if !free {
        std::process::exit(1);
    }
    println!("row-band overhead gate passed");
}
