//! In-repo timing harness — the workspace's replacement for criterion.
//!
//! Each bench binary builds a [`Harness`], registers closures with
//! [`Harness::bench`], and calls [`Harness::finish`], which prints a
//! human-readable table and writes `BENCH_<suite>.json` (machine-readable,
//! one record per benchmark) so successive PRs can diff performance
//! baselines without a plotting stack.
//!
//! Methodology: every benchmark runs `warmup` untimed iterations, then
//! `reps` timed iterations; the summary records min / median / mean /
//! sample standard deviation over the timed reps. Defaults (3 warmup,
//! 10 reps) are tuned for the paper-scale workloads; override globally
//! with `RRS_BENCH_WARMUP` / `RRS_BENCH_REPS` or per-suite via
//! [`Harness::with_reps`].
//!
//! Gates that compare two or more variants of one operation (the code
//! and the code it replaced, or a path with and without a hook) measure
//! them with [`paired`]: every rep runs one block of each variant back to
//! back, in an order that rotates between reps, and keeps each variant's
//! ratio to variant 0 from that rep, so drift in the host's speed that
//! hits a whole rep cancels out of its ratios. [`Harness::gate`] then
//! prints and writes the ratios' summary (pair count, median, quartiles,
//! min, max) and checks the median against a [`Bound`].

use std::hint::black_box;
use std::time::Instant;

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark id, e.g. `fft_1d/radix2/1024`.
    pub name: String,
    /// Timed iterations contributing to the statistics.
    pub reps: u64,
    /// Fastest rep.
    pub min_ns: f64,
    /// Median rep (midpoint of the two central reps for even counts).
    pub median_ns: f64,
    /// Mean over all reps.
    pub mean_ns: f64,
    /// Sample standard deviation (0 for a single rep).
    pub stddev_ns: f64,
    /// Optional elements-per-iteration for throughput reporting.
    pub elements: Option<u64>,
}

impl BenchRecord {
    /// Million elements per second at the median rep, when known.
    pub fn throughput_melems(&self) -> Option<f64> {
        self.elements.map(|e| e as f64 * 1e3 / self.median_ns)
    }
}

/// Collects benchmark records for one suite and serialises them on
/// [`finish`](Harness::finish).
pub struct Harness {
    suite: String,
    warmup: u64,
    reps: u64,
    records: Vec<BenchRecord>,
    sections: Vec<(String, String)>,
    paired: Vec<String>,
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.parse().ok()
}

impl Harness {
    /// Creates a harness for `suite`; output lands in `BENCH_<suite>.json`.
    pub fn new(suite: &str) -> Self {
        Self {
            suite: suite.to_string(),
            warmup: env_u64("RRS_BENCH_WARMUP").unwrap_or(3),
            reps: env_u64("RRS_BENCH_REPS").unwrap_or(10).max(1),
            records: Vec::new(),
            sections: Vec::new(),
            paired: Vec::new(),
        }
    }

    /// Overrides the timed-rep count for subsequently registered benches.
    pub fn with_reps(mut self, reps: u64) -> Self {
        if env_u64("RRS_BENCH_REPS").is_none() {
            self.reps = reps.max(1);
        }
        self
    }

    /// Times `f`, recording the suite-configured warmup + reps.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.bench_inner(name, None, f);
    }

    /// Like [`bench`](Harness::bench) but tags the record with an
    /// elements-per-iteration count so the report includes throughput.
    pub fn bench_elems<T>(&mut self, name: &str, elements: u64, f: impl FnMut() -> T) {
        self.bench_inner(name, Some(elements), f);
    }

    fn bench_inner<T>(&mut self, name: &str, elements: Option<u64>, mut f: impl FnMut() -> T) {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.reps as usize);
        for _ in 0..self.reps {
            let t0 = Instant::now();
            black_box(f());
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        self.record(name, elements, samples);
    }

    /// The configured timed-rep count (for suites that time their own
    /// loops, e.g. [`paired`] designs, and report through
    /// [`record`](Harness::record)).
    pub fn reps(&self) -> u64 {
        self.reps
    }

    /// Summarises externally timed samples (nanoseconds per iteration)
    /// into a record, exactly as [`bench`](Harness::bench) summarises its
    /// own.
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    pub fn record(&mut self, name: &str, elements: Option<u64>, mut samples: Vec<f64>) {
        assert!(!samples.is_empty(), "{name}: no samples");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = samples.len();
        let median = quantile_of_sorted(&samples, 0.5);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let record = BenchRecord {
            name: name.to_string(),
            reps: n as u64,
            min_ns: samples[0],
            median_ns: median,
            mean_ns: mean,
            stddev_ns: var.sqrt(),
            elements,
        };
        let tp = record
            .throughput_melems()
            .map(|v| format!(" {v:>10.2} Melem/s"))
            .unwrap_or_default();
        println!(
            "{:<44} median {:>12} min {:>12} ± {:>10}{tp}",
            record.name,
            fmt_ns(record.median_ns),
            fmt_ns(record.min_ns),
            fmt_ns(record.stddev_ns),
        );
        self.records.push(record);
    }

    /// The most recently recorded benchmark, if any — lets a suite derive
    /// summary sections (speedups, dispatch checks) from its own records
    /// before [`finish`](Harness::finish) consumes them.
    pub fn last_record(&self) -> Option<&BenchRecord> {
        self.records.last()
    }

    /// Attaches an extra top-level JSON section to the suite report —
    /// `value` must already be rendered JSON (object, array or scalar).
    /// Used by the `--obs` bench modes to embed the stage-breakdown
    /// [`rrs_obs::report::ObsReport`] next to the timing records.
    pub fn attach_section(&mut self, key: &str, value: String) {
        self.sections.push((key.to_string(), value));
    }

    /// Summarises the paired `ratios` of `label` (one per rep, e.g. a
    /// [`Paired::ratios`] entry), prints one line, adds the summary under
    /// `label` to the report's `paired` section and returns whether
    /// `bound` holds for the median, printing a `FAIL:` line to stderr
    /// when it does not.
    ///
    /// # Panics
    /// Panics if `ratios` is empty.
    pub fn gate(&mut self, label: &str, ratios: &[f64], bound: Bound) -> bool {
        let s = RatioSummary::of(ratios);
        let holds = bound.holds(s.median);
        let role = match bound {
            Bound::Reported => "reported".to_string(),
            _ => format!("gate: {}x", bound.describe()),
        };
        println!(
            "{label}: median of {} paired ratios {:.3}x, quartiles [{:.3}, {:.3}], \
             range [{:.3}, {:.3}]  ({role})",
            s.pairs, s.median, s.q1, s.q3, s.min, s.max,
        );
        if !holds {
            eprintln!("FAIL: {label}: median paired ratio {:.3}x ({role})", s.median);
        }
        self.paired.push(format!("\"{}\": {}", json_escape(label), s.to_json(bound)));
        holds
    }

    /// Writes `BENCH_<suite>.json` into the current directory (or
    /// `RRS_BENCH_DIR` when set), stamped with [`host_facts`], and returns
    /// the records.
    pub fn finish(mut self) -> std::io::Result<Vec<BenchRecord>> {
        if !self.paired.is_empty() {
            let paired = format!("{{{}}}", self.paired.join(", "));
            self.attach_section("paired", paired);
        }
        self.attach_section("host", host_facts());
        let dir = std::env::var("RRS_BENCH_DIR").unwrap_or_else(|_| ".".into());
        let path = format!("{dir}/BENCH_{}.json", self.suite);
        std::fs::write(
            &path,
            to_json(&self.suite, self.warmup, &self.records, &self.sections),
        )?;
        println!("\nwrote {path}");
        Ok(self.records)
    }
}

/// The `p` quantile of an ascending slice, interpolated linearly between
/// the two closest ranks (rank `p·(n − 1)`, counted from 0): `p = 0.5`
/// is the median, the midpoint of the two central values for even
/// lengths.
///
/// # Panics
/// Panics if `sorted` is empty.
fn quantile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    match sorted.get(lo + 1) {
        Some(&hi) if frac > 0.0 => sorted[lo] + frac * (hi - sorted[lo]),
        _ => sorted[lo],
    }
}

/// Runs `f` `calls` times back to back and returns the nanoseconds per
/// call.
pub fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Runs `f` `calls` times, timing each call, and returns the median
/// call's nanoseconds: a few calls that wait for a descheduled vCPU do
/// not move it.
///
/// # Panics
/// Panics if `calls` is 0.
pub fn median_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..calls).map(|_| per_call_ns(1, &mut f)).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    quantile_of_sorted(&times, 0.5)
}

/// What [`paired`] measured, per variant and in rep order.
#[derive(Debug)]
pub struct Paired {
    /// `times[i][r]`: variant `i`'s block time in rep `r`, as its block
    /// returned it.
    pub times: Vec<Vec<f64>>,
    /// `ratios[i][r]`: `times[i][r] / times[0][r]`, so `ratios[0]` is all
    /// ones.
    pub ratios: Vec<Vec<f64>>,
}

/// Measures `variants` variants of one operation in `pairs` paired reps.
///
/// `block(i)` runs one block of variant `i` and returns its time (a
/// block's calls, warm-up and statistic are the caller's: nanoseconds
/// per call, the median of its calls, a set's total). Rep `r` runs every
/// variant once, starting at variant `r mod variants` and going round in
/// index order, so with two variants the order alternates and with more
/// every variant runs in every position equally often. Each variant's
/// ratio to variant 0 is taken within the rep, so drift in the host's
/// speed that hits the whole rep cancels out of it.
///
/// # Panics
/// Panics if `variants` is 0.
pub fn paired(pairs: usize, variants: usize, mut block: impl FnMut(usize) -> f64) -> Paired {
    assert!(variants > 0, "a paired measurement needs a variant");
    let mut times = vec![Vec::with_capacity(pairs); variants];
    let mut ratios = vec![Vec::with_capacity(pairs); variants];
    let mut rep = vec![0.0; variants];
    for r in 0..pairs {
        for k in 0..variants {
            let i = (r + k) % variants;
            rep[i] = block(i);
        }
        for (i, &t) in rep.iter().enumerate() {
            times[i].push(t);
            ratios[i].push(t / rep[0]);
        }
    }
    Paired { times, ratios }
}

/// The summary every paired ratio is printed and written as.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RatioSummary {
    pairs: usize,
    median: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

impl RatioSummary {
    /// Summarises `ratios` (any order); quartiles interpolate between
    /// ranks as the median of an even count does.
    ///
    /// # Panics
    /// Panics if `ratios` is empty or holds a NaN.
    fn of(ratios: &[f64]) -> Self {
        assert!(!ratios.is_empty(), "no paired ratios");
        let mut s = ratios.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        Self {
            pairs: s.len(),
            median: quantile_of_sorted(&s, 0.5),
            q1: quantile_of_sorted(&s, 0.25),
            q3: quantile_of_sorted(&s, 0.75),
            min: s[0],
            max: s[s.len() - 1],
        }
    }

    fn to_json(self, bound: Bound) -> String {
        let bound = match bound {
            Bound::Reported => "null".to_string(),
            _ => format!("\"{}\"", bound.describe()),
        };
        format!(
            "{{\"pairs\": {}, \"median\": {:.3}, \"q1\": {:.3}, \"q3\": {:.3}, \"min\": {:.3}, \
             \"max\": {:.3}, \"bound\": {bound}}}",
            self.pairs, self.median, self.q1, self.q3, self.min, self.max,
        )
    }
}

/// What a paired ratio's median is checked against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A speed-up: the median must be at least this.
    AtLeast(f64),
    /// An overhead: the median must be below this.
    Below(f64),
    /// Reported, never failed.
    Reported,
}

impl Bound {
    /// Whether `median` passes.
    fn holds(self, median: f64) -> bool {
        match self {
            Bound::AtLeast(b) => median >= b,
            Bound::Below(b) => median < b,
            Bound::Reported => true,
        }
    }

    fn describe(self) -> String {
        match self {
            Bound::AtLeast(b) => format!(">= {b}"),
            Bound::Below(b) => format!("< {b}"),
            Bound::Reported => "reported".to_string(),
        }
    }
}

/// The facts a timing depends on, as a JSON object: the host's
/// `available_parallelism`, the compiler (`rustc --version`), the
/// checkout (`git rev-parse`, plus whether the tree had local changes),
/// the build profile and which copy of the FFT tile transforms the CPU
/// runs (`rfft_path`: `"avx2"` or `"portable"`). Tools that are missing
/// report `"unknown"`.
pub fn host_facts() -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = run("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = run("git", &["status", "--porcelain", "--untracked-files=no"])
        .map_or("null".to_string(), |s| (!s.is_empty()).to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"available_parallelism\": {parallelism}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"git_dirty\": {dirty}, \"profile\": \"{profile}\", \"rfft_path\": \"{}\"}}",
        json_escape(&rustc),
        json_escape(&rev),
        rrs_fft::rfft::tile_path(),
    )
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Minimal JSON emission: names are workspace-controlled identifiers
/// (`group/label/param`), so escaping backslashes and quotes suffices.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn to_json(
    suite: &str,
    warmup: u64,
    records: &[BenchRecord],
    sections: &[(String, String)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(suite)));
    out.push_str(&format!("  \"warmup\": {warmup},\n"));
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let elems = r.elements.map(|e| e.to_string()).unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"reps\": {}, \"min_ns\": {:.1}, \"median_ns\": {:.1}, \
             \"mean_ns\": {:.1}, \"stddev_ns\": {:.1}, \"elements\": {}}}{}\n",
            json_escape(&r.name),
            r.reps,
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            r.stddev_ns,
            elems,
            if i + 1 == records.len() { "" } else { "," },
        ));
    }
    if sections.is_empty() {
        out.push_str("  ]\n}\n");
    } else {
        out.push_str("  ],\n");
        for (i, (key, value)) in sections.iter().enumerate() {
            let sep = if i + 1 == sections.len() { "" } else { "," };
            out.push_str(&format!("  \"{}\": {value}{sep}\n", json_escape(key)));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_consistent() {
        let mut h = Harness::new("selftest").with_reps(5);
        h.bench("noop", || 1 + 1);
        let r = &h.records[0];
        assert_eq!(r.reps, 5);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.mean_ns + r.stddev_ns * 3.0 + 1.0);
        assert!(r.stddev_ns >= 0.0);
    }

    #[test]
    fn json_shape_is_parseable_by_eye_and_machine() {
        let records = vec![BenchRecord {
            name: "g/one\"quoted\"".into(),
            reps: 3,
            min_ns: 1.0,
            median_ns: 2.0,
            mean_ns: 2.5,
            stddev_ns: 0.5,
            elements: Some(64),
        }];
        let j = to_json("unit", 2, &records, &[]);
        assert!(j.contains("\"suite\": \"unit\""));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"elements\": 64"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        // Attached sections land as additional top-level keys and keep
        // the document balanced.
        let sections = vec![("obs".to_string(), "{\"counters\": {}}".to_string())];
        let j = to_json("unit", 2, &records, &sections);
        assert!(j.contains("\"obs\": {\"counters\": {}}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn paired_starts_rep_r_at_variant_r_mod_n() {
        for (variants, want) in [
            (2, vec![0, 1, 1, 0, 0, 1, 1, 0, 0, 1]),
            (3, vec![0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]),
            (4, vec![0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2, 0, 1, 2, 3]),
        ] {
            let mut order = Vec::new();
            let pairs = want.len() / variants;
            let p = paired(pairs, variants, |i| {
                order.push(i);
                1.0
            });
            assert_eq!(order, want, "{variants} variants");
            assert!(p.times.iter().all(|t| t.len() == pairs));
        }
    }

    #[test]
    fn paired_keeps_block_times_and_divides_by_variant_0_within_the_rep() {
        // Variant 0 takes 2, 4, 8 in reps 0..3; variant 1 takes 3 in every
        // rep and variant 2 always twice variant 0.
        let base = [2.0, 4.0, 8.0];
        let mut calls = [0usize; 3];
        let p = paired(3, 3, |i| {
            let r = calls[i];
            calls[i] += 1;
            [base[r], 3.0, 2.0 * base[r]][i]
        });
        assert_eq!(p.times, vec![base.to_vec(), vec![3.0; 3], vec![4.0, 8.0, 16.0]]);
        assert_eq!(p.ratios[0], vec![1.0; 3]);
        assert_eq!(p.ratios[1], vec![1.5, 0.75, 0.375], "variant 1 over variant 0");
        assert_eq!(p.ratios[2], vec![2.0; 3]);
    }

    #[test]
    fn ratio_summary_on_odd_and_even_counts() {
        let odd = RatioSummary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        let want = RatioSummary { pairs: 5, median: 3.0, q1: 2.0, q3: 4.0, min: 1.0, max: 5.0 };
        assert_eq!(odd, want);
        // Ranks 0.75, 1.5 and 2.25 of four.
        let even = RatioSummary::of(&[4.0, 1.0, 3.0, 2.0]);
        let want = RatioSummary { pairs: 4, median: 2.5, q1: 1.75, q3: 3.25, min: 1.0, max: 4.0 };
        assert_eq!(even, want);
        let one = RatioSummary::of(&[1.25]);
        assert_eq!((one.median, one.q1, one.q3, one.min, one.max), (1.25, 1.25, 1.25, 1.25, 1.25));
    }

    #[test]
    fn the_gate_passes_at_a_speed_up_bound_and_fails_at_an_overhead_bound() {
        let cases = [
            (Bound::AtLeast(2.0), [false, true, true]),
            (Bound::Below(2.0), [true, false, false]),
            (Bound::Reported, [true, true, true]),
        ];
        let mut h = Harness::new("selftest");
        for (bound, want) in cases {
            for (median, want) in [1.999, 2.0, 2.001].into_iter().zip(want) {
                assert_eq!(bound.holds(median), want, "{bound:?} at {median}");
                // The same verdict through the gate, on ratios whose median
                // is `median`.
                let ratios = [median - 1.0, median, median + 1.0];
                assert_eq!(h.gate("g", &ratios, bound), want, "{bound:?} at {median}");
            }
        }
        assert_eq!(h.paired.len(), 9);
        assert_eq!(
            h.paired[1],
            "\"g\": {\"pairs\": 3, \"median\": 2.000, \"q1\": 1.500, \"q3\": 2.500, \
             \"min\": 1.000, \"max\": 3.000, \"bound\": \">= 2\"}"
        );
        assert!(h.paired[4].ends_with("\"bound\": \"< 2\"}"));
        assert!(h.paired[7].ends_with("\"bound\": null}"));
    }

    #[test]
    fn throughput_uses_median() {
        let r = BenchRecord {
            name: "t".into(),
            reps: 1,
            min_ns: 500.0,
            median_ns: 1000.0,
            mean_ns: 1000.0,
            stddev_ns: 0.0,
            elements: Some(1000),
        };
        // 1000 elements / 1000 ns = 1e9 elem/s = 1000 Melem/s.
        assert!((r.throughput_melems().unwrap() - 1000.0).abs() < 1e-9);
    }
}
