//! Measurement plumbing shared by the workloads: percentiles, the result
//! record every workload returns, gate bookkeeping, an order-sensitive
//! output fingerprint and the process's peak resident set.

use parole_ovm::Receipt;
use std::fmt::Write as _;

/// Nearest-rank percentile (`q` in `0..=100`) of `samples`.
///
/// # Panics
///
/// Panics on an empty sample set.
pub(crate) fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50).
pub(crate) fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|kb| kb.trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counts checked operations and the ones that failed a correctness gate.
#[derive(Debug, Default, Clone)]
pub struct Gates {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// A description of each failure (kept short: the first few are
    /// printed).
    pub failures: Vec<String>,
}

impl Gates {
    /// Records one checked operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

/// 64-bit FNV-1a over the outputs a run must reproduce exactly: roots,
/// receipts and executed orders. Two runs of the same inputs (untraced and
/// traced, or two passes) must end with equal fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorbs one receipt: transaction hash, outcome, gas and bloom.
    pub fn receipt(&mut self, r: &Receipt) {
        self.bytes(r.tx_hash.as_bytes());
        self.bytes(&[u8::from(r.is_success())]);
        self.bytes(&r.gas_used.units().to_le_bytes());
        self.bytes(r.bloom.as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Gate tally over every pass.
    pub gates: Gates,
    /// `(name, value, unit)` rows, in the order they are printed.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Fingerprint of one pass's outputs (all passes must agree).
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// Appends a metric row.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The value of a metric recorded earlier, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Renders the result line: `{"correct", "attempted", "failed",
    /// "metrics": {name: {"value", "unit"}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.gates.failed == 0 && self.gates.attempted > 0,
            self.gates.attempted,
            self.gates.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let (mut a, mut b) = (Fingerprint::default(), Fingerprint::default());
        a.bytes(b"xy");
        b.bytes(b"yx");
        assert_ne!(a, b);
    }
}
