//! What one repetition reports, and how K repetitions become one result.
//!
//! The timing protocol: a workload is cut into chunks of fixed operation
//! count; every repetition times every chunk; for each chunk index the
//! harness keeps the repetition in which that chunk finished fastest,
//! together with the per-operation samples recorded inside it. The
//! *composite run* is the concatenation of those chunks. On this host the
//! same work takes 1.45–2× longer for seconds at a time, process CPU time
//! rises with it and a calibration kernel slows by a different factor, so
//! a disturbed stretch can be neither subtracted nor normalised away; it
//! can only be left out, chunk by chunk.

use std::fmt::Write as _;

use crate::END_TO_END;

/// Where a chunk sits in the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// From nothing to ready; summed into `setup_s`.
    Setup,
    /// Measured traffic of one client stream (0 or 1). Streams run
    /// concurrently, so the composite's measured time is the longer one.
    Measured(u8),
}

/// One timed chunk of one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    pub phase: Phase,
    pub dur_ns: f64,
    /// Completed operations (results, for `embedded` read chunks).
    pub ops: u64,
    /// Read-latency samples taken inside the chunk, in ns.
    pub reads: Vec<f64>,
    /// Write-latency samples taken inside the chunk, in ns.
    pub writes: Vec<f64>,
}

/// Operations attempted and answers that were wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything a child process hands back to the harness.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RepReport {
    pub chunks: Vec<Chunk>,
    pub tally: Tally,
    /// The child's `VmHWM` at exit, in KiB.
    pub rss_kb: u64,
    /// Hash of the committed data file (`wire_flush`; 0 elsewhere).
    pub image_hash: u64,
}

const MAGIC: u64 = 0x4849_4245_4E43_4831; // "HIBENCH1"

impl RepReport {
    /// Little-endian words: the child writes this to its stdout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut word = |w: u64| out.extend_from_slice(&w.to_le_bytes());
        word(MAGIC);
        word(self.tally.attempted);
        word(self.tally.failed);
        word(self.rss_kb);
        word(self.image_hash);
        word(self.chunks.len() as u64);
        for c in &self.chunks {
            word(match c.phase {
                Phase::Setup => 0,
                Phase::Measured(s) => 1 + u64::from(s),
            });
            word(c.dur_ns.to_bits());
            word(c.ops);
            word(c.reads.len() as u64);
            word(c.writes.len() as u64);
            c.reads
                .iter()
                .chain(&c.writes)
                .for_each(|s| word(s.to_bits()));
        }
        out
    }

    /// Inverse of [`Self::encode`]; `None` on anything malformed.
    pub fn decode(bytes: &[u8]) -> Option<RepReport> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let mut words = bytes.chunks_exact(8).map(|w| {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            u64::from_le_bytes(b)
        });
        if words.next()? != MAGIC {
            return None;
        }
        let mut report = RepReport {
            tally: Tally {
                attempted: words.next()?,
                failed: words.next()?,
            },
            rss_kb: words.next()?,
            image_hash: words.next()?,
            ..RepReport::default()
        };
        let n_chunks = words.next()?;
        for _ in 0..n_chunks {
            let phase = match words.next()? {
                0 => Phase::Setup,
                s => Phase::Measured(u8::try_from(s - 1).ok()?),
            };
            let dur_ns = f64::from_bits(words.next()?);
            let ops = words.next()?;
            let n_reads = words.next()? as usize;
            let n_writes = words.next()? as usize;
            // Bounded by what is actually there, not by the claimed count.
            let mut samples = |n: usize| -> Option<Vec<f64>> {
                (0..n).map(|_| words.next().map(f64::from_bits)).collect()
            };
            report.chunks.push(Chunk {
                phase,
                dur_ns,
                ops,
                reads: samples(n_reads)?,
                writes: samples(n_writes)?,
            });
        }
        words.next().is_none().then_some(report)
    }
}

/// Linear-interpolated percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The composite run of K repetitions of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Composite {
    pub setup_s: f64,
    /// Composite measured time: the longer client stream's sum.
    pub measured_s: f64,
    /// Operations completed in the measured chunks.
    pub ops: u64,
    /// Pooled read samples of the selected measured chunks, ascending, ns.
    pub reads: Vec<f64>,
    /// Pooled write samples of the selected measured chunks, ascending, ns.
    pub writes: Vec<f64>,
    /// Σ per-chunk median ÷ Σ per-chunk minimum across repetitions: 1.0 on
    /// a perfectly calm host; above 1.3, treat the run with suspicion.
    pub disturbance: f64,
    /// Median over repetitions of the child's peak RSS.
    pub rss_mb: f64,
}

impl Composite {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.measured_s
    }

    pub fn read_p50_us(&self) -> f64 {
        percentile(&self.reads, 50.0) / 1e3
    }

    pub fn write_p50_us(&self) -> f64 {
        percentile(&self.writes, 50.0) / 1e3
    }
}

/// Builds the composite. Every repetition ran the same script, so the chunk
/// tables must have the same shape; `Err` names the first difference.
pub fn compose(reps: &[RepReport]) -> Result<Composite, String> {
    let first = reps.first().ok_or("no repetitions")?;
    for (r, rep) in reps.iter().enumerate() {
        let same_shape = rep.chunks.len() == first.chunks.len()
            && rep
                .chunks
                .iter()
                .zip(&first.chunks)
                .all(|(a, b)| a.phase == b.phase && a.ops == b.ops);
        if !same_shape {
            return Err(format!("repetition {r} ran a different chunk table"));
        }
    }
    let mut setup_ns = 0.0;
    let mut stream_ns = [0.0f64; 2];
    let mut ops = 0;
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let (mut sum_median, mut sum_min) = (0.0, 0.0);
    for c in 0..first.chunks.len() {
        let durs: Vec<f64> = reps.iter().map(|rep| rep.chunks[c].dur_ns).collect();
        let best = reps
            .iter()
            .map(|rep| &rep.chunks[c])
            .min_by(|a, b| a.dur_ns.total_cmp(&b.dur_ns))
            .ok_or("no repetitions")?;
        sum_median += median(&durs);
        sum_min += best.dur_ns;
        match best.phase {
            Phase::Setup => setup_ns += best.dur_ns,
            Phase::Measured(stream) => {
                *stream_ns
                    .get_mut(usize::from(stream))
                    .ok_or("more than two client streams")? += best.dur_ns;
                ops += best.ops;
                reads.extend_from_slice(&best.reads);
                writes.extend_from_slice(&best.writes);
            }
        }
    }
    reads.sort_by(f64::total_cmp);
    writes.sort_by(f64::total_cmp);
    let rss: Vec<f64> = reps.iter().map(|r| r.rss_kb as f64 / 1024.0).collect();
    Ok(Composite {
        setup_s: setup_ns / 1e9,
        measured_s: stream_ns[0].max(stream_ns[1]) / 1e9,
        ops,
        reads,
        writes,
        disturbance: sum_median / sum_min,
        rss_mb: median(&rss),
    })
}

/// One named number of the output.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many timed samples (or counted events) stand behind the value.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// The five end-to-end metrics of one workload's composite, in
/// [`END_TO_END`]'s order.
pub fn end_to_end(c: &Composite, reps: usize) -> Vec<Metric> {
    let values = [
        (c.setup_s, reps as u64),
        (c.ops_per_s(), c.ops),
        (c.read_p50_us(), c.reads.len() as u64),
        (c.write_p50_us(), c.writes.len() as u64),
        (c.rss_mb, reps as u64),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Metric::new(m.name, value, m.unit, samples))
        .collect()
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a value as measured and its unit.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints an f64 with every digit it has.
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    line
}

/// The human-readable table of one metric list.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<40} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(phase: Phase, dur_ns: f64, reads: &[f64], writes: &[f64]) -> Chunk {
        Chunk {
            phase,
            dur_ns,
            ops: 10,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        }
    }

    fn rep(chunks: Vec<Chunk>, rss_kb: u64) -> RepReport {
        RepReport {
            chunks,
            tally: Tally {
                attempted: 40,
                failed: 0,
            },
            rss_kb,
            image_hash: 7,
        }
    }

    #[test]
    fn composite_takes_each_chunk_from_its_fastest_repetition() {
        use Phase::{Measured, Setup};
        let reps = [
            rep(
                vec![
                    chunk(Setup, 5e9, &[], &[]),
                    chunk(Measured(0), 1e9, &[1.0, 2.0], &[10.0]),
                    chunk(Measured(0), 9e9, &[90.0], &[900.0]),
                    chunk(Measured(1), 4e9, &[7.0], &[]),
                ],
                2048,
            ),
            rep(
                vec![
                    chunk(Setup, 3e9, &[], &[]),
                    chunk(Measured(0), 2e9, &[100.0, 200.0], &[1000.0]),
                    chunk(Measured(0), 2e9, &[3.0], &[30.0]),
                    chunk(Measured(1), 6e9, &[700.0], &[]),
                ],
                4096,
            ),
            rep(
                vec![
                    chunk(Setup, 4e9, &[], &[]),
                    chunk(Measured(0), 3e9, &[5e3], &[5e3]),
                    chunk(Measured(0), 3e9, &[5e3], &[5e3]),
                    chunk(Measured(1), 5e9, &[5e3], &[]),
                ],
                3072,
            ),
        ];
        let c = compose(&reps).unwrap();
        assert_eq!(c.setup_s, 3.0);
        // Stream 0: 1 s (rep 0) + 2 s (rep 1); stream 1: 4 s (rep 0).
        assert_eq!(c.measured_s, 4.0);
        assert_eq!(c.ops, 30);
        assert_eq!(c.reads, vec![1.0, 2.0, 3.0, 7.0]);
        assert_eq!(c.writes, vec![10.0, 30.0]);
        assert_eq!(c.rss_mb, 3.0);
        // Medians 4+2+3+5 = 14 s over minima 3+1+2+4 = 10 s.
        assert!((c.disturbance - 1.4).abs() < 1e-12);
        assert_eq!(c.ops_per_s(), 7.5);
        assert_eq!(c.read_p50_us(), 2.5e-3);
    }

    #[test]
    fn composite_refuses_repetitions_of_different_shape() {
        let a = rep(vec![chunk(Phase::Setup, 1.0, &[], &[])], 1);
        let b = rep(vec![chunk(Phase::Measured(0), 1.0, &[], &[])], 1);
        assert!(compose(&[a.clone(), b]).is_err());
        assert!(compose(&[]).is_err());
        assert!(compose(&[a]).is_ok());
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn report_round_trips_and_rejects_garbage() {
        let r = rep(
            vec![
                chunk(Phase::Setup, 1.5, &[], &[]),
                chunk(Phase::Measured(1), 2.25, &[0.125, 3.0], &[4.0]),
            ],
            12345,
        );
        let bytes = r.encode();
        assert_eq!(RepReport::decode(&bytes), Some(r));
        assert_eq!(RepReport::decode(&bytes[..bytes.len() - 8]), None);
        assert_eq!(RepReport::decode(&bytes[1..]), None);
        assert_eq!(RepReport::decode(&[0u8; 64]), None);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            1000,
            0,
            &[
                Metric::new("setup_s", 0.8127, "s", 7),
                Metric::new("ops_per_s", 6343.25, "1/s", 8000),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 6343.25, \"unit\": \"1/s\"}}}"
        );
        assert!(result_line(5, 1, &[]).starts_with("{\"correct\": false"));
    }
}
