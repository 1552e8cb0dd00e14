//! Order statistics, the process's peak memory, and the metric sheet a
//! run prints.

use std::collections::BTreeMap;
use std::time::Duration;

/// Samples needed beyond a percentile before it is reported.
const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, by the nearest-rank rule.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// A latency sample set summarized the way the benchmark reports it:
/// the median and the highest percentile, up to p99, that still has at
/// least ten samples beyond it.
#[derive(Clone, Debug, Default)]
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    /// The reported tail value.
    pub tail: f64,
    /// Which percentile `tail` is (99 when the sample supports it).
    pub tail_pct: f64,
}

impl Tail {
    pub fn of(values: &[f64]) -> Tail {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        // Highest q ≤ 0.99 with n·(1−q) ≥ TAIL_SAMPLES.
        let supported = if n == 0 { 0.0 } else { 1.0 - TAIL_SAMPLES as f64 / n as f64 };
        let q = supported.clamp(0.5, 0.99);
        Tail { count: n, p50: quantile(&v, 0.5), tail: quantile(&v, q), tail_pct: q * 100.0 }
    }

    /// `p99` when supported, else e.g. `p97.3`.
    pub fn tail_label(&self) -> String {
        if (self.tail_pct - 99.0).abs() < 1e-9 {
            "p99".into()
        } else {
            format!("p{:.1}", self.tail_pct)
        }
    }
}

/// The latency pair a run reports from per-round samples, with a note
/// saying how it was formed. When every round supports its own p99, the
/// result is the median over rounds of each round's p50 and p99, so one
/// disturbed round cannot move it; otherwise the rounds are pooled.
pub fn round_tails(rounds: &[&[f64]]) -> (f64, f64, String) {
    let supported = rounds.iter().all(|r| r.len() >= 100 * TAIL_SAMPLES);
    if supported && !rounds.is_empty() {
        let tails: Vec<Tail> = rounds.iter().map(|r| Tail::of(r)).collect();
        let p50 = median(&tails.iter().map(|t| t.p50).collect::<Vec<_>>());
        let p99 = median(&tails.iter().map(|t| t.tail).collect::<Vec<_>>());
        let n: usize = rounds.iter().map(|r| r.len()).sum();
        (p50, p99, format!("median over {} rounds, n={n}", rounds.len()))
    } else {
        let pooled: Vec<f64> = rounds.iter().flat_map(|r| r.iter().copied()).collect();
        let t = Tail::of(&pooled);
        (t.p50, t.tail, format!("pooled {} of n={}", t.tail_label(), t.count))
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set (MiB) of this process: `VmHWM` from
/// `/proc/self/status`; 0 if it cannot be read. Unlike `getrusage`'s
/// maxrss, `VmHWM` starts afresh at `exec`, so a launcher's own memory
/// (`cargo run`) is not counted. The benchmark starts no child
/// processes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Free-form provenance printed next to the value (sample count,
    /// which percentile, "n/a" for a layer the workload never enters).
    pub note: String,
}

/// The named metrics of one run, in name order.
#[derive(Clone, Debug, Default)]
pub struct Sheet {
    pub metrics: BTreeMap<String, Metric>,
}

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.insert(name.to_string(), Metric { value, unit, note: note.into() });
    }

    /// Records a metric the workload does not exercise: it reads 0.
    pub fn absent(&mut self, name: &str, unit: &'static str) {
        self.set(name, 0.0, unit, "n/a on this workload");
    }

    /// Sets `<name>.p50` and `<name>.p99` from a sample set.
    pub fn tail(&mut self, name: &str, values: &[f64], unit: &'static str) {
        let t = Tail::of(values);
        self.set(&format!("{name}.p50"), t.p50, unit, format!("n={}", t.count));
        self.set(
            &format!("{name}.p99"),
            t.tail,
            unit,
            format!("{} of n={}", t.tail_label(), t.count),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.p50, 50.0);
        assert!((t.tail_pct - 90.0).abs() < 1e-9);
        assert_eq!(t.tail, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!(t.tail_label(), "p99");
        assert_eq!(t.tail, 1980.0);
    }
}
