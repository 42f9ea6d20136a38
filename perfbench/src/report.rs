//! Result accounting and the one-line JSON the benchmark ends with.

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted in the measured window(s).
    pub attempted: u64,
    /// Rejected + lost + quarantined + benign-not-served requests.
    pub failed: u64,
    /// Correctness violations; an empty list means the run is correct.
    pub problems: Vec<String>,
    /// Measured values by metric name; units come from the metric table.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and one entry
    /// per `(name, unit)` of `table`, in table order. A layer the
    /// workload bypasses reads 0.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.iter().find(|(n, _)| n == name).map_or(0.0, |m| m.1);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile `p` (0–100) of raw samples.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `part / whole` as a percentage (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num / den` (0 when `den` is 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("tput_rps", 12.5);
        let line = o.to_json(&[("tput_rps", "req/s"), ("absent", "ms")]);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"tput_rps\": {\"value\": 12.5, \"unit\": \"req/s\"}"));
        assert!(line.contains("\"absent\": {\"value\": 0.0, \"unit\": \"ms\"}"));
    }
}
