//! Order statistics and open-loop timing arithmetic.

use std::time::{Duration, Instant};

/// The percentile ladder the tail metric picks from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `pct`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// 1-based nearest rank of `pct` among `n` samples (the epsilon keeps
/// exact products such as 99.9% of 10000 from rounding up a rank).
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail the benchmark reports: the highest ladder percentile that
/// leaves at least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The chosen percentile (falls back to the median when even p50
    /// leaves too few samples beyond it).
    pub pct: f64,
    /// The percentile's value.
    pub value: f64,
    /// How many samples lie beyond the percentile's rank.
    pub beyond: usize,
}

/// Picks the tail percentile of `samples`, at most `top` (`None` when
/// empty). A workload whose sample count varies with the speed of the
/// host or the code passes the rung its usual count reaches, so its tail
/// stays the same percentile across runs rather than jumping a rung when
/// the count crosses a threshold.
pub fn tail(samples: &[f64], top: f64) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pct = TAIL_LADDER
        .into_iter()
        .filter(|p| *p <= top)
        .find(|p| n - rank(n, *p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    let r = rank(n, pct);
    Some(Tail {
        pct,
        value: sorted[r - 1],
        beyond: n - r,
    })
}

/// One open-loop request: when the schedule wanted it sent, when the
/// generator actually sent it, and when its answer came back.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub due: Instant,
    pub sent: Instant,
    pub answered: Instant,
}

impl Arrival {
    /// Latency as a user sees it, from the due time: a late generator
    /// cannot hide queueing delay by sending late.
    pub fn latency(&self) -> Duration {
        self.answered.saturating_duration_since(self.due)
    }

    /// How far behind schedule the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    /// Time the request spent on the wire and in the server.
    pub fn round_trip(&self) -> Duration {
        self.answered.saturating_duration_since(self.sent)
    }
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    fn tail_all(samples: &[f64]) -> Option<Tail> {
        tail(samples, TAIL_LADDER[0])
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        let t = tail_all(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 99 samples: p90's rank is 90, leaving 9, so p75 is chosen.
        let t = tail_all(&ramp(99)).unwrap();
        assert_eq!((t.pct, t.beyond), (75.0, 24));
        // 1000 samples: p99 leaves exactly 10.
        let t = tail_all(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 10000 samples: p99.9 leaves 10.
        assert_eq!(tail_all(&ramp(10_000)).unwrap().pct, 99.9);
        // Order of the input does not matter.
        let mut rev = ramp(100);
        rev.reverse();
        assert_eq!(tail_all(&rev).unwrap().value, 90.0);
    }

    #[test]
    fn tail_stays_at_or_below_its_top() {
        // 1000 samples reach p99, but a p90 top holds the tail there.
        let t = tail(&ramp(1000), 90.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 900.0, 100));
        // Too few samples for the top: the next rung down still keeps
        // ten beyond.
        let t = tail(&ramp(99), 90.0).unwrap();
        assert_eq!((t.pct, t.beyond), (75.0, 24));
        // A top between rungs means the rung below it.
        assert_eq!(tail(&ramp(1000), 97.0).unwrap().pct, 95.0);
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_median() {
        let t = tail_all(&ramp(12)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 6.0, 6));
        assert!(tail_all(&[]).is_none());
        for n in 1..400 {
            let t = tail_all(&ramp(n)).unwrap();
            assert!(t.beyond >= TAIL_MIN_BEYOND || t.pct == 50.0, "n={n}");
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let answered = due + Duration::from_millis(100);
        let a = Arrival {
            due,
            sent,
            answered,
        };
        assert_eq!(a.latency(), Duration::from_millis(100));
        assert_eq!(a.lateness(), Duration::from_millis(30));
        assert_eq!(a.round_trip(), Duration::from_millis(70));
        // Sent early (never happens, but must not underflow).
        let early = Arrival {
            due: sent,
            sent: due,
            answered,
        };
        assert_eq!(early.lateness(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::from_millis(70));
    }
}
