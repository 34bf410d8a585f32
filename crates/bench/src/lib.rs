//! Shared plumbing for the benchmark harnesses.
//!
//! Every figure, table and theorem of the paper's evaluation is an anchor of
//! the [`paper`] registry, driven by the `paper` binary; the other binaries
//! in `src/bin/` measure this workspace's own layers. They print Markdown
//! tables to stdout and can dump the raw rows as JSON (set
//! `AP_BENCH_JSON=/path/out.json`).
//!
//! `AP_BENCH_SCALE` multiplies every default input size (default 1), so the
//! same binaries serve a quick run and a paper-scale run.

// The forbid covers the library target only; the one unsafe block in the
// workspace (the counting GlobalAlloc in bin/bulk_vs_incremental.rs) lives
// in a bin target and stays auditable there.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use dict_server::{Client, ClientError, Request, Response};
use serde::Serialize;
use std::net::SocketAddr;
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

/// Prints a Markdown table of rows grouped by series (one column per series,
/// one line per x value) and dumps the raw rows as JSON to `AP_BENCH_JSON`,
/// when it is set.
pub fn emit(title: &str, rows: &[Row]) {
    print_table(title, rows);
    dump_json(rows);
}

/// The table half of [`emit`].
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

/// The JSON half of [`emit`]: writes `rows` to `AP_BENCH_JSON`, when set.
pub fn dump_json(rows: &[Row]) {
    if let Ok(path) = std::env::var("AP_BENCH_JSON") {
        let json = serde_json::to_string_pretty(rows).expect("rows serialize");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
}

/// splitmix64, the stateless key scrambler used across the benches.
pub fn scramble(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The i-th operation of the seeded 95/5 get/put mix over `keyspace` keys.
pub fn mix_op(i: u64, salt: u64, keyspace: u64) -> Request {
    let r = scramble(i ^ salt);
    let key = scramble(r) % keyspace;
    if r % 100 < 95 {
        Request::Get { key }
    } else {
        Request::Put {
            key,
            value: r ^ key,
        }
    }
}

/// Preloads `keyspace` keys over one pipelined connection, so the mix's
/// gets mostly hit.
pub fn preload(addr: SocketAddr, keyspace: u64) -> Result<(), ClientError> {
    let mut c = Client::connect(addr)?;
    for key in 0..keyspace {
        c.send(&Request::Put {
            key,
            value: scramble(key),
        })?;
    }
    c.flush()?;
    for _ in 0..keyspace {
        match c.recv()? {
            Response::Done => {}
            other => return Err(ClientError::Unexpected(other)),
        }
    }
    Ok(())
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
