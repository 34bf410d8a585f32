//! Runs the paper's evaluation: every anchor of `ap_bench::paper::ANCHORS`,
//! or the ones named on the command line, each as a table and a verdict.
//! Exits non-zero when a verdict disagrees with the outcome the registry
//! records for its anchor, in either direction.
//!
//! Run: `cargo run -p ap-bench --release --bin paper -- [fig2 space …]`
//! Sizes scale with `AP_BENCH_SCALE`; `AP_BENCH_JSON=/path.json` dumps every
//! anchor's rows, each series prefixed with its anchor's name.

use ap_bench::paper::{anchor, Expected, ANCHORS, DEFAULT_SIZE};
use ap_bench::{dump_json, print_table, scaled, timed, Row};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let named: Result<Vec<_>, _> = names.iter().map(|n| anchor(n).ok_or(n)).collect();
    let selected = match named {
        Ok(_) if names.is_empty() => ANCHORS.iter().collect(),
        Ok(named) => named,
        Err(unknown) => {
            let known: Vec<&str> = ANCHORS.iter().map(|a| a.name).collect();
            eprintln!("unknown anchor {unknown:?}; anchors: {}", known.join(" "));
            return ExitCode::from(2);
        }
    };
    let (mut all, mut mismatches) = (Vec::new(), Vec::new());
    for a in selected {
        let (rows, secs) = timed(|| (a.run)(scaled(DEFAULT_SIZE)));
        print_table(&format!("{} ({})", a.section, a.name), &rows);
        let (holds, says) = (a.verdict)(&rows);
        let recorded = match a.expected {
            Expected::Holds => "holds".to_string(),
            Expected::Deviates(why) => format!("deviates, {why}"),
        };
        let outcome = if holds { "holds" } else { "deviates" };
        println!(
            "\n{}: {outcome}: {says} [recorded: {recorded}; {secs:.1} s]",
            a.name
        );
        mismatches.extend(a.check(&(holds, says)).err());
        all.extend(rows.into_iter().map(|r| Row {
            series: format!("{}: {}", a.name, r.series),
            ..r
        }));
    }
    dump_json(&all);
    for m in &mismatches {
        eprintln!("verdict mismatch: {m}");
    }
    if mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
