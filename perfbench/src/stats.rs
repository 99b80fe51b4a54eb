//! Order statistics over per-session times.
//!
//! A session either completes, with the time from its first pipeline
//! call to its complete force result, or fails. A failed session counts
//! as missing every latency limit: it ranks above every completed one,
//! so a percentile that lands on it has no value instead of a fast one.

/// The percentile the tail metric reports. Higher ones measured the
/// shared host rather than the program: on a 2-vCPU host, the
/// `tcp_ingest` p99 read 2.5 ms in eight of ten runs and 7.5–8.4 ms in
/// the two that met a busy spell, and p99.9 moved between 3.5 and
/// 6.5 ms from run to run.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Samples that must lie beyond the tail percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Per-session outcomes of one run.
#[derive(Debug, Default, Clone)]
pub struct SessionTimes {
    done_ms: Vec<f64>,
    failed: usize,
}

/// The tail percentile's value and the sessions beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Its value in ms; `None` when it lands on a failed session.
    pub value_ms: Option<f64>,
    /// Sessions ranked beyond it.
    pub beyond: usize,
}

impl SessionTimes {
    /// Records a session that completed after `ms` milliseconds.
    pub fn done(&mut self, ms: f64) {
        self.done_ms.push(ms);
    }

    /// Records a session that failed or was refused.
    pub fn failed(&mut self) {
        self.failed += 1;
    }

    /// Folds another run's outcomes into this one.
    pub fn merge(&mut self, other: SessionTimes) {
        self.done_ms.extend(other.done_ms);
        self.failed += other.failed;
    }

    /// Sessions attempted (completed plus failed).
    pub fn attempted(&self) -> usize {
        self.done_ms.len() + self.failed
    }

    /// Sessions that failed.
    pub fn failures(&self) -> usize {
        self.failed
    }

    /// Nearest-rank percentile `p` over every attempted session, failed
    /// ones ranked last. `None` when nothing was attempted or the rank
    /// falls on a failed session.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.attempted();
        if n == 0 {
            return None;
        }
        let idx = rank(p, n) - 1;
        let mut done = self.done_ms.clone();
        done.sort_by(|a, b| a.partial_cmp(b).expect("session times are finite"));
        done.get(idx).copied()
    }

    /// The median session time.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The [`TAIL_PERCENTILE`] session time, when at least
    /// [`MIN_BEYOND`] sessions lie beyond it.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.attempted();
        let beyond = n.saturating_sub(rank(TAIL_PERCENTILE, n));
        (beyond >= MIN_BEYOND).then(|| Tail {
            value_ms: self.percentile(TAIL_PERCENTILE),
            beyond,
        })
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// tolerance keeps decimal percentiles such as 99.9 from rounding up a
/// rank on exact multiples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Median of a non-empty sample (upper median for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(n: usize) -> SessionTimes {
        let mut t = SessionTimes::default();
        for i in 1..=n {
            t.done(i as f64);
        }
        t
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly 10 beyond it.
        let tail = times(100).tail().expect("100 samples reach p90");
        assert_eq!(tail.value_ms, Some(90.0));
        assert_eq!(tail.beyond, 10);
        assert!(times(99).tail().is_none());
        assert!(times(0).tail().is_none());
        assert_eq!(times(1000).tail().map(|t| t.beyond), Some(100));
    }

    #[test]
    fn decimal_percentiles_do_not_round_up_a_rank() {
        // 99.9 % of 10 000 is exactly rank 9990.
        assert_eq!(times(10_000).percentile(99.9), Some(9990.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let t = times(10);
        assert_eq!(t.p50(), Some(5.0));
        assert_eq!(t.percentile(90.0), Some(9.0));
        assert_eq!(t.percentile(100.0), Some(10.0));
        assert_eq!(t.percentile(0.0), Some(1.0));
    }

    #[test]
    fn a_failed_session_counts_as_missing_not_as_fast() {
        // Three fast completions and two failures: the failures rank
        // last, so the median is the slowest completion, not a fast one.
        let mut t = SessionTimes::default();
        for ms in [1.0, 2.0, 3.0] {
            t.done(ms);
        }
        t.failed();
        t.failed();
        assert_eq!(t.attempted(), 5);
        assert_eq!(t.failures(), 2);
        assert_eq!(t.p50(), Some(3.0));
        // The 80th percentile lands on a failure: no value at all.
        assert_eq!(t.percentile(80.0), None);
    }

    #[test]
    fn failures_count_toward_the_tail_sample_size() {
        let mut t = times(95);
        for _ in 0..5 {
            t.failed();
        }
        let tail = t.tail().expect("100 attempted sessions reach p90");
        assert_eq!(tail.value_ms, Some(90.0));
    }

    #[test]
    fn merge_keeps_both_runs() {
        let mut a = times(3);
        let mut b = times(2);
        b.failed();
        a.merge(b);
        assert_eq!(a.attempted(), 6);
        assert_eq!(a.failures(), 1);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }
}
