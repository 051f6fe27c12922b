//! Summaries (median, percentiles) and the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v.get(n / 2 - 1)? + v.get(n / 2)?) / 2.0),
    }
}

/// Nearest-rank index of percentile `pct` among `n` sorted samples.
fn rank(n: usize, pct: f64) -> usize {
    #[allow(clippy::cast_possible_truncation)] // the ceiling of a value in [0, n] fits
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n.max(1)) - 1
}

/// Whether percentile `pct` of `n` samples has at least ten samples
/// beyond it, so that it is measured rather than a single outlier.
pub fn supported(n: usize, pct: f64) -> bool {
    n > 0 && n - 1 - rank(n, pct) >= 10
}

/// Percentiles the tail rule chooses among, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples below this many nanoseconds are counted at 1 ns resolution;
/// the rare slower ones are kept as they are.
const EXACT_NS: usize = 1 << 20;

/// Latency samples in nanoseconds, at full resolution, in memory that
/// does not grow with the sample count (so `peak_rss_mib` does not track
/// throughput).
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<u32>,
    slow: Vec<u64>,
    n: usize,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; EXACT_NS],
            slow: Vec::new(),
            n: 0,
        }
    }

    /// Add one sample.
    pub fn record(&mut self, ns: u64) {
        match usize::try_from(ns)
            .ok()
            .and_then(|i| self.counts.get_mut(i))
        {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.n += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.slow.extend(&other.slow);
        self.n += other.n;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The `k`-th smallest sample (0-based).
    fn nth(&self, k: usize) -> Option<u64> {
        let mut seen = 0usize;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen > k {
                return u64::try_from(ns).ok();
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow.get(k - seen).copied()
    }

    /// Percentile `pct` (nearest rank), if at least ten samples lie
    /// beyond it.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        if !supported(self.n, pct) {
            return None;
        }
        self.nth(rank(self.n, pct))
    }

    /// The highest candidate percentile with at least ten samples beyond
    /// it: `(percentile, value)`.
    pub fn tail(&self) -> Option<(f64, u64)> {
        TAIL_CANDIDATES
            .iter()
            .find_map(|&p| self.percentile(p).map(|v| (p, v)))
    }
}

/// Whether `name` is a valid metric name: a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The benchmark's last stdout line: the output check's verdict, the
/// operations attempted and failed, and every metric with its unit.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Render as one JSON object. Errors name the first metric whose name
    /// is malformed or whose value is not finite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("malformed metric name {name:?}"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit it needs to round-trip.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th: ten beyond it.
        assert!(supported(1000, 99.0));
        // Of 999 it is still the 990th: nine beyond.
        assert!(!supported(999, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
        let h = histogram(1..=1010);
        assert_eq!(h.percentile(99.0), Some(1000));
        assert_eq!(h.percentile(99.9), None);
    }

    fn histogram(samples: impl IntoIterator<Item = u64>) -> Histogram {
        let mut h = Histogram::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn tail_picks_the_highest_supported_percentile() {
        // 200k samples: p99.99 has 20 beyond it.
        assert_eq!(histogram(0..200_000).tail(), Some((99.99, 199_979)));
        assert_eq!(histogram(0..5_000).tail(), Some((99.0, 4_949)));
        assert_eq!(histogram(0..25).tail(), Some((50.0, 12)));
        assert_eq!(histogram(0..5).tail(), None);
    }

    #[test]
    fn histogram_is_exact_past_its_fine_range_and_merges() {
        let slow = EXACT_NS as u64;
        let mut a = histogram((0..990).map(|i| i * 7));
        let b = histogram((0..30).map(|i| slow + 1_000 - i));
        a.merge(&b);
        assert_eq!(a.len(), 1020);
        // Rank 1009 (p99): the 20th of the 30 slow samples.
        assert_eq!(a.percentile(99.0), Some(slow + 1_000 - 10));
        assert_eq!(a.percentile(50.0), Some(509 * 7));
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "db.lookup_batch_ns",
            "experiments.fig3_s",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "rtt µs",
            "a\"b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn outcome_renders_one_json_object_and_rejects_bad_values() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("run_s".into(), 1.25, "s".into())],
        };
        assert_eq!(
            o.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        o.metrics.push(("bad name".into(), 1.0, "s".into()));
        assert!(o.to_json().is_err());
        o.metrics.pop();
        o.metrics.push(("nan".into(), f64::NAN, "s".into()));
        assert!(o.to_json().is_err());
    }
}
