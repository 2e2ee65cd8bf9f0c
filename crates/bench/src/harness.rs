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
    /// loops, e.g. paired designs, and report through
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
        let median = median_of_sorted(&samples);
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

    /// Writes `BENCH_<suite>.json` into the current directory (or
    /// `RRS_BENCH_DIR` when set), stamped with [`host_facts`], and returns
    /// the records.
    pub fn finish(mut self) -> std::io::Result<Vec<BenchRecord>> {
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

/// The median of an ascending slice (midpoint of the two central values
/// for even lengths).
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
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
