//! Small order statistics and the result record the benchmark prints.

use std::fmt::Write as _;

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over `bytes`: the digest ledgers are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64: the benchmark's own seeded stream for shuffles and samples.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run reports: the op counts and either the end-to-end
/// metrics (untraced run) or the per-layer ones (traced run).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// failures, span self times).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one op and whether it failed (with the reason, if so).
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failed <= 20 {
                self.notes.push(format!("FAILED: {why}"));
            }
        }
    }

    /// `(attempted, failed)`: a run that attempted nothing, or measured a
    /// non-finite value, counts one more failed op.
    pub fn counts(&self) -> (u64, u64) {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let broken = u64::from(!finite || self.attempted == 0);
        (self.attempted + broken, self.failed + broken)
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.  Non-finite values are printed as 0 (and counted failed
    /// by [`Outcome::counts`]), never as invalid JSON.
    pub fn to_json(&self) -> String {
        let (attempted, failed) = self.counts();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
