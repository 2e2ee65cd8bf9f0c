//! Compares two sets of `BENCH_*.json` rows and flags the rows whose
//! median moved by more than the rows' own spread.
//!
//! ```text
//! bench_diff OLD.json NEW.json [OLD2.json NEW2.json ...]
//! ```
//!
//! For example, HEAD against its parent:
//!
//! ```text
//! git show HEAD~1:BENCH_fft.json > /tmp/BENCH_fft.old.json
//! cargo run --release -p rrs-bench --bin bench_diff -- /tmp/BENCH_fft.old.json BENCH_fft.json
//! ```
//!
//! Each row present in both files is printed with its old and new median,
//! their ratio and the spread it is judged against: the larger of the two
//! rows' standard deviations. A row whose medians differ by more than that
//! is marked `faster` or `slower`; otherwise `~`. Rows in only one file
//! are listed as `added` or `removed`. Exits 2 on bad arguments or an
//! unreadable file; the flags themselves never fail the run.

use std::process::ExitCode;

/// One benchmark row: its name, median and standard deviation in ns.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    name: String,
    median_ns: f64,
    stddev_ns: f64,
}

/// The rows of a `BENCH_*.json` file: every object with a `"name"`, a
/// `"median_ns"` and a `"stddev_ns"` (section entries without timings are
/// skipped).
fn parse_rows(json: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("\"name\":") {
        let object = &rest[at..];
        let end = object.find('}').unwrap_or(object.len());
        let body = &object[..end];
        let name = string_field(body, "name");
        let median = number_field(body, "median_ns");
        let stddev = number_field(body, "stddev_ns");
        if let (Some(name), Some(median_ns), Some(stddev_ns)) = (name, median, stddev) {
            rows.push(Row { name, median_ns, stddev_ns });
        }
        rest = &object[end.max(1)..];
    }
    rows
}

fn field_value<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let at = body.find(&tag)? + tag.len();
    Some(body[at..].trim_start())
}

fn string_field(body: &str, key: &str) -> Option<String> {
    let value = field_value(body, key)?.strip_prefix('"')?;
    Some(value[..value.find('"')?].to_string())
}

fn number_field(body: &str, key: &str) -> Option<f64> {
    let value = field_value(body, key)?;
    let end = value.find([',', '}', ' ', '\n']).unwrap_or(value.len());
    value[..end].parse().ok()
}

/// How a row moved between two sets.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    Faster,
    Slower,
    Within,
}

/// `Faster`/`Slower` when the medians differ by more than the larger of
/// the two standard deviations, `Within` otherwise.
fn verdict(old: &Row, new: &Row) -> Verdict {
    let spread = old.stddev_ns.max(new.stddev_ns);
    let delta = new.median_ns - old.median_ns;
    if delta.abs() <= spread {
        Verdict::Within
    } else if delta < 0.0 {
        Verdict::Faster
    } else {
        Verdict::Slower
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The comparison table of one file pair, and the count of flagged rows.
fn compare(old: &[Row], new: &[Row]) -> (String, usize) {
    let mut out = format!(
        "{:<42} {:>12} {:>12} {:>8} {:>12}  {}\n",
        "row", "old median", "new median", "new/old", "spread", "verdict"
    );
    let mut flagged = 0;
    for n in new {
        let Some(o) = old.iter().find(|o| o.name == n.name) else {
            out.push_str(&format!("{:<42} {:>12} {:>12}  added\n", n.name, "-", fmt_ns(n.median_ns)));
            continue;
        };
        let v = verdict(o, n);
        let tag = match v {
            Verdict::Faster => "faster",
            Verdict::Slower => "slower",
            Verdict::Within => "~",
        };
        flagged += usize::from(v != Verdict::Within);
        out.push_str(&format!(
            "{:<42} {:>12} {:>12} {:>8.3} {:>12}  {tag}\n",
            n.name,
            fmt_ns(o.median_ns),
            fmt_ns(n.median_ns),
            n.median_ns / o.median_ns,
            fmt_ns(o.stddev_ns.max(n.stddev_ns)),
        ));
    }
    for o in old.iter().filter(|o| new.iter().all(|n| n.name != o.name)) {
        out.push_str(&format!("{:<42} {:>12} {:>12}  removed\n", o.name, fmt_ns(o.median_ns), "-"));
    }
    (out, flagged)
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() || paths.len() % 2 != 0 {
        eprintln!("usage: bench_diff OLD.json NEW.json [OLD2.json NEW2.json ...]");
        return ExitCode::from(2);
    }
    for pair in paths.chunks(2) {
        let mut sets = Vec::new();
        for path in pair {
            match std::fs::read_to_string(path) {
                Ok(json) => sets.push(parse_rows(&json)),
                Err(e) => {
                    eprintln!("bench_diff: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let (table, flagged) = compare(&sets[0], &sets[1]);
        println!("== {} -> {}", pair[0], pair[1]);
        print!("{table}");
        println!("{flagged} of {} shared rows moved by more than their spread\n", sets[1].len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
  "suite": "fft",
  "benchmarks": [
    {"name": "a", "reps": 5, "min_ns": 90.0, "median_ns": 100.0, "mean_ns": 101.0, "stddev_ns": 5.0, "elements": 1},
    {"name": "b", "reps": 5, "min_ns": 90.0, "median_ns": 100.0, "mean_ns": 101.0, "stddev_ns": 5.0, "elements": null},
    {"name": "gone", "reps": 5, "min_ns": 1.0, "median_ns": 2.0, "mean_ns": 2.0, "stddev_ns": 0.1, "elements": 1}
  ],
  "lanes": {"side": 160, "median_scalar_over_lanes": 2.0},
  "dispatch": [{"shape": "cl8", "kernel": [65, 65]}]
}"#;

    #[test]
    fn rows_parse_and_sections_without_timings_are_skipped() {
        let rows = parse_rows(OLD);
        let names: Vec<_> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "gone"]);
        assert_eq!(rows[0], Row { name: "a".into(), median_ns: 100.0, stddev_ns: 5.0 });
    }

    #[test]
    fn moves_past_the_larger_spread_are_flagged() {
        let row = |median_ns, stddev_ns| Row { name: "a".into(), median_ns, stddev_ns };
        assert_eq!(verdict(&row(100.0, 5.0), &row(104.0, 1.0)), Verdict::Within);
        assert_eq!(verdict(&row(100.0, 5.0), &row(94.0, 1.0)), Verdict::Faster);
        assert_eq!(verdict(&row(100.0, 1.0), &row(110.0, 12.0)), Verdict::Within);
        assert_eq!(verdict(&row(100.0, 1.0), &row(110.0, 2.0)), Verdict::Slower);
    }

    #[test]
    fn the_table_lists_added_and_removed_rows() {
        let old = parse_rows(OLD);
        let new = vec![
            Row { name: "a".into(), median_ns: 50.0, stddev_ns: 1.0 },
            Row { name: "new".into(), median_ns: 7.0, stddev_ns: 1.0 },
        ];
        let (table, flagged) = compare(&old, &new);
        assert_eq!(flagged, 1);
        assert!(table.contains("faster"), "{table}");
        assert!(table.lines().any(|l| l.starts_with("new ") && l.ends_with("added")), "{table}");
        assert!(table.lines().any(|l| l.starts_with("gone ") && l.ends_with("removed")), "{table}");
        assert!(table.lines().any(|l| l.starts_with("b ") && l.ends_with("removed")), "{table}");
    }
}
