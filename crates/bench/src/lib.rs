//! The paper's evaluation and its plumbing.
//!
//! Every figure, table and theorem of the paper's evaluation is an anchor of
//! the [`paper`] registry, driven by the `paper` binary, which prints each
//! anchor's rows as a Markdown table and can dump them all as JSON (set
//! `AP_BENCH_JSON=/path/out.json`); `json_check` validates such a dump and
//! the committed `BENCH_baseline.json`.
//!
//! `AP_BENCH_SCALE` multiplies every default input size (default 1), so the
//! same runner serves a quick run and a paper-scale run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use serde::Serialize;
use std::time::Instant;

pub mod paper;

/// Reads a `usize` environment variable with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Global scale multiplier (`AP_BENCH_SCALE`, default 1).
pub fn scale() -> usize {
    env_usize("AP_BENCH_SCALE", 1).max(1)
}

/// Scales a default size by [`scale`].
pub fn scaled(default: usize) -> usize {
    default * scale()
}

/// A generic result row: a labelled series point, serializable to JSON.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Which series / structure the point belongs to.
    pub series: String,
    /// The x coordinate (e.g. number of insertions, N, k, B).
    pub x: f64,
    /// The measured value.
    pub y: f64,
    /// What `y` measures (for self-describing JSON output).
    pub metric: String,
}

impl Row {
    /// Convenience constructor.
    pub fn new(series: &str, x: f64, y: f64, metric: &str) -> Self {
        Self {
            series: series.to_string(),
            x,
            y,
            metric: metric.to_string(),
        }
    }
}

/// Prints a Markdown table of rows grouped by series: one column per
/// series, one line per x value.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n### {title}\n");
    let mut series: Vec<&str> = Vec::new();
    let mut xs: Vec<f64> = Vec::new();
    for r in rows {
        if !series.contains(&r.series.as_str()) {
            series.push(&r.series);
        }
        if !xs.iter().any(|&x| (x - r.x).abs() < 1e-9) {
            xs.push(r.x);
        }
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let metric = rows.first().map_or("value", |r| r.metric.as_str());
    println!(
        "| x \\ {metric} |{}",
        series.iter().map(|s| format!(" {s} |")).collect::<String>()
    );
    println!("|---|{}", "---|".repeat(series.len()));
    for &x in &xs {
        let cell = |s: &&str| {
            let row = rows
                .iter()
                .find(|r| r.series == *s && (r.x - x).abs() < 1e-9);
            row.map_or(" – |".to_string(), |r| format!(" {:.3} |", r.y))
        };
        println!("| {x} |{}", series.iter().map(cell).collect::<String>());
    }
}

/// Writes `rows` to `AP_BENCH_JSON` as JSON, when it is set.
pub fn dump_json(rows: &[Row]) {
    if let Ok(path) = std::env::var("AP_BENCH_JSON") {
        let json = serde_json::to_string_pretty(rows).expect("rows serialize");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        assert_eq!(env_usize("AP_BENCH_DOES_NOT_EXIST", 7), 7);
        assert!(scale() >= 1);
        assert_eq!(scaled(10), 10 * scale());
    }

    #[test]
    fn rows_serialize() {
        let row = Row::new("hi-pma", 1000.0, 2.5, "moves/op");
        let json = serde_json::to_string(&row).unwrap();
        assert!(json.contains("hi-pma"));
    }

    #[test]
    fn derive_survives_generic_field_types() {
        // Regression for the vendored derive shim: commas inside generic
        // types must not split fields, and no trailing field may be dropped.
        #[derive(Serialize)]
        struct Nested {
            pairs: Vec<(u64, u64)>,
            label: String,
            last: u64,
        }
        let v = Nested {
            pairs: vec![(1, 2)],
            label: "x".into(),
            last: 9,
        };
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"{"pairs":[[1,2]],"label":"x","last":9}"#);
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
