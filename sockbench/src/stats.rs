//! Percentiles, release digests, failure tallies and the metric report.

use crate::gen::mix;
use pir::engine::{Command, Reply};

/// Nearest-rank percentiles of one sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize `values` (reordered in place). An empty sample gives
    /// `n == 0` and NaN percentiles, which the report refuses to print.
    pub fn of(values: &mut [f64]) -> Summary {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let rank = |q: f64| -> f64 {
            if n == 0 {
                return f64::NAN;
            }
            let i = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            values[i]
        };
        Summary {
            n,
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            p999: rank(0.999),
            max: rank(1.0),
        }
    }

    /// The median of several repeats.
    pub fn median(values: &[f64]) -> f64 {
        Summary::of(&mut values.to_vec()).p50
    }
}

/// Per-session digests of every reply, folded over the exact bit
/// patterns of the released estimators, so two runs agree on a session
/// only if they released bit-identical sequences to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digests {
    pub hash: Vec<u64>,
    pub replies: Vec<u64>,
}

impl Digests {
    pub fn new(pool: u64) -> Self {
        Digests { hash: vec![0; pool as usize], replies: vec![0; pool as usize] }
    }

    fn fold(&mut self, sid: u64, words: impl IntoIterator<Item = u64>) {
        let Some(h) = self.hash.get_mut(sid as usize) else { return };
        for w in words {
            *h = mix(*h ^ mix(w));
        }
        self.replies[sid as usize] += 1;
    }

    /// Fold `reply` into the digest of the session it answers. Error
    /// replies carry no session and are counted as failures instead.
    pub fn absorb(&mut self, reply: &Reply) {
        match reply {
            Reply::Opened { session_id } => self.fold(*session_id, [1]),
            Reply::Releases { session_id, thetas } => {
                let bits = thetas.iter().flat_map(|t| t.iter().map(|v| v.to_bits()));
                self.fold(*session_id, std::iter::once(2).chain(bits));
            }
            Reply::SessionReleased { session_id, points, epsilon_spent, delta_spent } => {
                self.fold(*session_id, [3, *points, epsilon_spent.to_bits(), delta_spent.to_bits()])
            }
            Reply::Closed | Reply::Err(_) => {}
        }
    }

    /// Adopt the sessions `other` has seen more replies for: `other` is a
    /// clone of `self` that a connection thread advanced on its own
    /// (connections address disjoint sessions while they run at once).
    pub fn merge(&mut self, other: &Digests) {
        for (i, &n) in other.replies.iter().enumerate() {
            if n > self.replies[i] {
                self.hash[i] = other.hash[i];
                self.replies[i] = n;
            }
        }
    }
}

/// Command types, in report order.
pub const KINDS: [&str; 4] = ["OPEN", "OBSERVE", "OBSERVE_BATCH", "RELEASE"];

pub fn kind(cmd: &Command) -> usize {
    match cmd {
        Command::Open { .. } => 0,
        Command::Observe { .. } => 1,
        Command::ObserveBatch { .. } => 2,
        Command::Release { .. } | Command::Close => 3,
    }
}

/// Points a command feeds.
pub fn points(cmd: &Command) -> usize {
    match cmd {
        Command::Observe { .. } => 1,
        Command::ObserveBatch { points, .. } => points.len(),
        _ => 0,
    }
}

/// Commands sent, succeeded and failed, per command type.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub sent: [u64; 4],
    pub ok: [u64; 4],
    pub failed: [u64; 4],
}

impl Tally {
    pub fn count(&mut self, kind: usize, reply: &Reply) {
        self.sent[kind] += 1;
        if matches!(reply, Reply::Err(_) | Reply::Closed) {
            self.failed[kind] += 1;
        } else {
            self.ok[kind] += 1;
        }
    }

    pub fn add(&mut self, other: &Tally) {
        for k in 0..4 {
            self.sent[k] += other.sent[k];
            self.ok[k] += other.ok[k];
            self.failed[k] += other.failed[k];
        }
    }

    pub fn attempted(&self) -> u64 {
        self.sent.iter().sum()
    }

    pub fn failures(&self) -> u64 {
        self.failed.iter().sum()
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub n: usize,
}

pub fn metric(name: &str, unit: &'static str, value: f64, n: usize) -> Metric {
    Metric { name: name.to_string(), unit, value, n }
}

/// `v` with six significant digits, for the human-readable lines.
pub fn sig(v: f64) -> String {
    let digits = if v == 0.0 || !v.is_finite() { 0 } else { v.abs().log10().floor() as i32 };
    format!("{:.*}", (5 - digits).clamp(0, 12) as usize, v)
}

/// The last line of the benchmark's output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_its_sample_count() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.max, 1000.0);
        let empty = Summary::of(&mut []);
        assert_eq!(empty.n, 0);
        assert!(empty.p50.is_nan());
    }

    #[test]
    fn digests_see_every_bit() {
        let reply = |v: f64| Reply::Releases { session_id: 3, thetas: vec![vec![v, 0.5]] };
        let (mut a, mut b) = (Digests::new(8), Digests::new(8));
        a.absorb(&reply(0.25));
        b.absorb(&reply(f64::from_bits(0.25f64.to_bits() ^ 1)));
        assert_ne!(a, b);
        let mut c = Digests::new(8);
        c.absorb(&reply(0.25));
        assert_eq!(a, c);
    }
}
