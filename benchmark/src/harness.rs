//! The parent side: spawn one fresh child process per repetition, build the
//! composite, check the images, run the traced repetition and the probes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use anti_persistence::prelude::*;

use crate::report::{compose, end_to_end, percentile, Composite, Metric, RepReport, Tally};
use crate::script::{self, key, value, Scale, Workload};
use crate::trace::Recorder;
use crate::workloads;
use crate::{probes, EndToEnd, END_TO_END};

/// Untraced repetitions of a traced run: enough for `host.disturbance` and
/// `trace.overhead_share`, few enough that the probes fit in the same time.
const TRACED_RUN_REPS: usize = 3;

/// Keys sampled from the reopened `wire_flush` image.
const IMAGE_SAMPLES: u64 = 1024;

pub struct Config {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub scale: Scale,
    /// Untraced repetitions per workload.
    pub reps: usize,
    pub trace: bool,
}

pub struct WorkloadResult {
    pub workload: Workload,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// The cargo target directory this executable was built into: the one
/// place inside the checkout that is never committed, so temporary images
/// and trace files go there.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} has no target directory above it", exe.display()))
}

/// A directory of temporary files, removed on success and on failure.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> Result<Self, String> {
        let dir = target_dir()?
            .join("tmp")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one repetition in a fresh process: same seed, so the same
/// requests; allocator and RSS start clean. With `trace_out` the child
/// records spans and writes them there.
fn spawn_child(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    image: &Path,
    trace_out: Option<&Path>,
) -> Result<RepReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", scale.label])
        .arg("--image")
        .arg(image);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            out.status
        ));
    }
    RepReport::decode(&out.stdout)
        .ok_or_else(|| format!("{} child wrote a malformed report", workload.name()))
}

/// The child side of [`spawn_child`]: one repetition, report on stdout.
pub fn child_main(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    image: &Path,
    trace_out: Option<&Path>,
) -> Result<(), String> {
    use std::io::Write;
    let mut rec = match trace_out {
        Some(_) => Recorder::on(Instant::now(), 1 << 20),
        None => Recorder::off(),
    };
    let report = workloads::run(workload, seed, scale, image, &mut rec)?;
    if let Some(path) = trace_out {
        std::fs::write(path, rec.to_json(workload.name(), seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_all(&report.encode())
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// The paper's property, checked at benchmark time: same contents and seed
/// give the same bytes although epoch boundaries differed between
/// repetitions; and writes that were acknowledged and flushed survive a
/// restart from the flushed bytes alone.
fn check_image(
    reps: &[RepReport],
    image: &Path,
    seed: u64,
    scale: &Scale,
    tally: &mut Tally,
) -> Result<(), String> {
    let first = reps.first().map_or(0, |r| r.image_hash);
    tally.check(first != 0 && reps.iter().all(|r| r.image_hash == first));
    let mut reopened = workloads::open_image(image)?;
    tally.check(reopened.verify().is_ok());
    let (_, live) = script::flush_rounds(seed, scale);
    tally.check(reopened.len() as u64 == live.len());
    let mut rand = script::Rand::new(seed, 0x1A6E);
    for _ in 0..IMAGE_SAMPLES {
        let i = rand.below(live.next);
        let expect = live.contains(i).then(|| value(i, seed));
        tally.check(reopened.get_ref(&key(i)) == expect.as_ref());
    }
    Ok(())
}

/// What the traced repetition adds for one workload.
fn traced_metrics(c: &Composite, traced: &RepReport, probe_failed: u64) -> Vec<Metric> {
    let traced_rate = compose(std::slice::from_ref(traced)).map_or(0.0, |t| t.ops_per_s());
    vec![
        Metric::new(
            "client.read_p99_us",
            percentile(&c.reads, 99.0) / 1e3,
            "us",
            c.reads.len() as u64,
        ),
        Metric::new(
            "client.write_p99_us",
            percentile(&c.writes, 99.0) / 1e3,
            "us",
            c.writes.len() as u64,
        ),
        Metric::new(
            "client.failed",
            (traced.tally.failed + probe_failed) as f64,
            "count",
            traced.tally.attempted,
        ),
        Metric::new("host.disturbance", c.disturbance, "ratio", c.ops),
        Metric::new(
            "trace.overhead_share",
            1.0 - traced_rate / c.ops_per_s(),
            "ratio",
            traced.tally.attempted,
        ),
    ]
}

/// Runs the configured workloads: repetitions round-robin across them, one
/// child at a time, so that a workload's samples of one chunk are spread
/// over the whole invocation.
pub fn run(config: &Config) -> Result<Vec<WorkloadResult>, String> {
    let tmp = TempDir::create()?;
    let image_of = |w: Workload, rep: usize| tmp.0.join(format!("{}-{rep}.bin", w.name()));
    let mut reports: Vec<Vec<RepReport>> = vec![Vec::new(); config.workloads.len()];
    for rep in 0..config.reps {
        for (w, &workload) in config.workloads.iter().enumerate() {
            let image = image_of(workload, rep);
            let report = spawn_child(workload, config.seed, &config.scale, &image, None);
            // Only the last repetition's image is kept, for the reopen
            // check; the (empty) journals go with the directory.
            if rep + 1 < config.reps {
                let _ = std::fs::remove_file(&image);
            }
            reports[w].push(report?);
        }
    }

    let probed = match config.trace {
        true => Some(probes::run_all(
            config.seed,
            &config.scale,
            &tmp.0.join("probe.bin"),
        )?),
        false => None,
    };

    let mut results = Vec::new();
    for (&workload, reps) in config.workloads.iter().zip(&reports) {
        let mut tally = Tally::default();
        reps.iter().for_each(|r| tally.absorb(r.tally));
        if workload == Workload::WireFlush {
            let image = image_of(workload, config.reps - 1);
            check_image(reps, &image, config.seed, &config.scale, &mut tally)?;
        }
        let composite = compose(reps)?;
        let mut per_layer = Vec::new();
        if let Some((probe_metrics, probe_tally)) = &probed {
            let trace_file = target_dir()?.join(format!("trace-{}.json", workload.name()));
            let traced = spawn_child(
                workload,
                config.seed,
                &config.scale,
                &image_of(workload, config.reps),
                Some(&trace_file),
            )?;
            tally.absorb(traced.tally);
            tally.absorb(*probe_tally);
            per_layer.extend(probe_metrics.iter().cloned());
            per_layer.extend(traced_metrics(&composite, &traced, probe_tally.failed));
        }
        results.push(WorkloadResult {
            workload,
            end_to_end: end_to_end(&composite, reps.len()),
            per_layer,
            attempted: tally.attempted,
            failed: tally.failed,
        });
    }
    Ok(results)
}

/// Repetitions for a `--seconds` budget: the full K at
/// [`crate::RUN_SECONDS`] or more, proportionally fewer below, never under
/// two. A traced run spends most of its budget on the probes.
pub fn reps_for(scale: &Scale, seconds: u64, trace: bool) -> usize {
    let full = if trace {
        TRACED_RUN_REPS.min(scale.reps)
    } else {
        scale.reps
    };
    (full * seconds as usize / crate::RUN_SECONDS as usize).clamp(2, full)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(0.0); 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// By how much `b`'s median is worse than `a`'s, as a share of `a`'s
/// (negative when better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The A/A check: the whole benchmark `2 × runs` times on the same code,
/// alternating sets A and B, every run on another seed. Prints, for every
/// workload × end-to-end metric, both medians and quartile spreads and the
/// relative difference against the metric's bound. `Ok(true)` when every
/// difference is inside its bound.
pub fn aa(base: &Config, runs: usize) -> Result<(String, bool), String> {
    let cells = base.workloads.len() * END_TO_END.len();
    let mut sets = [vec![Vec::new(); cells], vec![Vec::new(); cells]];
    for i in 0..2 * runs {
        // A B B A A B …: neither set always runs first.
        let set = i.div_ceil(2) % 2;
        let config = Config {
            workloads: base.workloads.clone(),
            seed: base.seed + i as u64,
            ..*base
        };
        eprintln!(
            "aa: run {} of {} (set {})",
            i + 1,
            2 * runs,
            ["A", "B"][set]
        );
        for (w, result) in run(&config)?.iter().enumerate() {
            if result.failed != 0 {
                return Err(format!(
                    "{}: {} failed",
                    result.workload.name(),
                    result.failed
                ));
            }
            for (m, metric) in result.end_to_end.iter().enumerate() {
                sets[set][w * END_TO_END.len() + m].push(metric.value);
            }
        }
    }
    let mut table = format!(
        "A/A, {runs} runs per set, K = {}, {} scale\n\
         {:<15} {:<13} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        base.reps,
        base.scale.label,
        "workload",
        "metric",
        "median A",
        "IQR A",
        "median B",
        "IQR B",
        "B vs A",
        "bound"
    );
    let mut all_inside = true;
    for (w, workload) in base.workloads.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let [a, b] = [0, 1].map(|s| quartiles(&sets[s][w * END_TO_END.len() + m]));
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
            let diff = worsening(metric, a[1], b[1]);
            let inside = diff.abs() <= metric.bound;
            all_inside &= inside;
            let _ = writeln!(
                table,
                "{:<15} {:<13} {:>12.4} {:>7.2}% {:>12.4} {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                workload.name(),
                metric.name,
                a[1],
                spread(a) * 100.0,
                b[1],
                spread(b) * 100.0,
                diff * 100.0,
                metric.bound * 100.0,
                if inside { "ok" } else { "OUTSIDE" }
            );
        }
    }
    Ok((table, all_inside))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), [1.5, 3.0, 8.5]);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let [setup, rate, ..] = END_TO_END;
        assert!((worsening(&setup, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worsening(&rate, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&rate, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn repetitions_scale_with_the_budget() {
        let full = Scale::FULL;
        assert_eq!(reps_for(&full, crate::RUN_SECONDS, false), 7);
        assert_eq!(reps_for(&full, 60, false), 7);
        assert_eq!(reps_for(&full, 10, false), 3);
        assert_eq!(reps_for(&full, 1, false), 2);
        assert_eq!(reps_for(&full, crate::RUN_SECONDS, true), 3);
        assert_eq!(reps_for(&Scale::SMOKE, crate::RUN_SECONDS, true), 2);
    }
}
