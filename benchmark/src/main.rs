//! `hi-benchmark`: the command behind `BENCHMARK.json`.
//!
//! ```text
//! hi-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! hi-benchmark aa [--runs R] [--workload NAME] [--seed N] [--smoke]
//! ```
//!
//! Without `--workload` all four workloads run, their repetitions
//! round-robin. The last line of standard output is the result object; with
//! one workload it has exactly the keys `correct`, `attempted`, `failed`
//! and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use hi_benchmark::affinity;
use hi_benchmark::harness::{self, Config, WorkloadResult};
use hi_benchmark::report::{result_line, table};
use hi_benchmark::script::{Scale, Workload};
use hi_benchmark::RUN_SECONDS;

#[derive(Default)]
struct Args {
    subcommand: Option<String>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    runs: Option<usize>,
    scale: Option<Scale>,
    image: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_some_and(|a| !a.starts_with("--")) {
        args.subcommand = it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let raw = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            raw.parse::<u64>()
                .map_err(|_| format!("{flag}: {raw:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::from_name(&raw).ok_or_else(|| format!("unknown workload {raw:?}"))?,
                );
            }
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = Some(number()?),
            "--trace" => args.trace = number()? != 0,
            "--runs" => args.runs = Some(number()? as usize),
            "--scale" => {
                args.scale =
                    Some(Scale::from_label(&raw).ok_or_else(|| format!("unknown scale {raw:?}"))?);
            }
            "--image" => args.image = Some(raw.into()),
            "--trace-out" => args.trace_out = Some(raw.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn config(args: &Args) -> Config {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    Config {
        workloads: args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed: args.seed.unwrap_or(1),
        reps: harness::reps_for(&scale, args.seconds.unwrap_or(RUN_SECONDS), args.trace),
        scale,
        trace: args.trace,
    }
}

fn print_results(config: &Config, results: &[WorkloadResult]) {
    if config.scale == Scale::SMOKE {
        println!("SMOKE RUN (K = 2, a tenth of the keys): numbers are not comparable");
    }
    for r in results {
        let title = format!(
            "{} seed {} K {} {} attempted {} failed {}",
            r.workload.name(),
            config.seed,
            config.reps,
            config.scale.label,
            r.attempted,
            r.failed
        );
        print!("{}", table(&title, &r.end_to_end));
        if !r.per_layer.is_empty() {
            print!("{}", table("  per layer", &r.per_layer));
        }
    }
    let line = |r: &WorkloadResult| {
        let metrics = if config.trace {
            &r.per_layer
        } else {
            &r.end_to_end
        };
        result_line(r.attempted, r.failed, metrics)
    };
    match results {
        [one] => println!("{}", line(one)),
        many => {
            let objects: Vec<String> = many
                .iter()
                .map(|r| format!("\"{}\": {}", r.workload.name(), line(r)))
                .collect();
            println!("{{{}}}", objects.join(", "));
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.subcommand.as_deref() != Some("child") {
        // Children, and the threads of the servers inside them, inherit it.
        affinity::pin_to_one_cpu()?;
    }
    match args.subcommand.as_deref() {
        Some("child") => {
            let missing = |what: &str| format!("child: {what} is required");
            harness::child_main(
                args.workload.ok_or_else(|| missing("--workload"))?,
                args.seed.ok_or_else(|| missing("--seed"))?,
                &args.scale.ok_or_else(|| missing("--scale"))?,
                &args.image.ok_or_else(|| missing("--image"))?,
                args.trace_out.as_deref(),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Some("aa") => {
            let (table, inside) = harness::aa(&config(&args), args.runs.unwrap_or(5).max(5))?;
            print!("{table}");
            Ok(if inside {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
        None => {
            let config = config(&args);
            let results = harness::run(&config)?;
            print_results(&config, &results);
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    run().unwrap_or_else(|msg| {
        eprintln!("hi-benchmark: {msg}");
        ExitCode::FAILURE
    })
}
