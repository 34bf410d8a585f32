//! The repository's one repeatable benchmark: four workloads against the
//! served and the embedded history-independent dictionary, five end-to-end
//! metrics each, per-layer probes, and a timing protocol built for a noisy
//! two-core host. `README.md` beside this package is the reference.

// Denied, not forbidden: `affinity` makes the package's two foreign calls.
#![deny(unsafe_code)]

pub mod affinity;
pub mod harness;
pub mod probes;
pub mod report;
pub mod script;
pub mod trace;
pub mod workloads;

/// `--seconds` the full configuration is sized for: at this budget or more
/// every workload gets the full K repetitions; below it, proportionally
/// fewer (never under two).
pub const RUN_SECONDS: u64 = 20;

/// One end-to-end metric: its unit, direction, and the share of the
/// baseline's median by which it may worsen before that is a regression.
/// `BENCHMARK.json` states the same; a package test holds the two together.
///
/// The timed metrics carry 0.25, not the 0.10 the issue hoped for: this
/// host drifts between speed regimes that last a minute or more (ten runs
/// of one workload on one commit spread 5–9 % between quartiles on the
/// wire workloads, and the last three runs of a set sat 6–13 % from the
/// first seven), and no protocol inside a 20 s run can see past that. The
/// README has the measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.05,
    },
];
