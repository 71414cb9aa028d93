//! Order statistics and request accounting: the benchmark's own math,
//! kept free of timing so tests can pin it.

/// Fewest samples that must lie strictly beyond a percentile before it is
/// reported as that percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile in `n` samples:
/// `ceil(p/100 · n)`, clamped to `1..=n`.
#[must_use]
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank `p`-th percentile of an ascending sample; `None` when the
/// sample is empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// A reported percentile: the value, the percentile it was taken at, and
/// the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Value at the percentile.
    pub value: f64,
    /// Percentile taken.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// The nearest-rank `p`-th percentile of `samples`; `None` unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
#[must_use]
pub fn supported_quantile(samples: &[f64], p: f64) -> Option<Quantile> {
    let q = plain_quantile(samples, p);
    (q.samples >= nearest_rank(q.samples, p) + MIN_BEYOND).then_some(q)
}

/// The nearest-rank `p`-th percentile with its sample count, whatever the
/// sample size (per-layer figures, which carry no bound).
#[must_use]
pub fn plain_quantile(samples: &[f64], p: f64) -> Quantile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Quantile {
        value: percentile(&sorted, p).unwrap_or(0.0),
        percentile: p,
        samples: sorted.len(),
    }
}

/// Nearest-rank median of an unsorted sample; 0 for an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    plain_quantile(samples, 50.0).value
}

/// Arithmetic mean; 0 for an empty sample.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The wall-clock life of one served request, in seconds since the run's
/// origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// When the request was due to be sent.
    pub due: f64,
    /// End of the tick that produced its first token.
    pub first_token: f64,
    /// End of the tick it retired in.
    pub completion: f64,
    /// Output tokens it produced.
    pub tokens: usize,
}

impl Timeline {
    /// Time to first token: due time to the end of the first token's tick.
    #[must_use]
    pub fn ttft(&self) -> f64 {
        self.first_token - self.due
    }

    /// Time per output token after the first; `None` for a single-token
    /// request.
    #[must_use]
    pub fn tpot(&self) -> Option<f64> {
        (self.tokens > 1).then(|| (self.completion - self.first_token) / (self.tokens - 1) as f64)
    }
}

/// Maps tick indices to the wall-clock end of each tick.
///
/// # Panics
///
/// Panics if a tick index has no recorded end (a bug in the load generator).
#[must_use]
pub fn timeline(
    tick_end: &[f64],
    due: f64,
    first_token_tick: u64,
    completion_tick: u64,
    tokens: usize,
) -> Timeline {
    let at = |tick: u64| tick_end[usize::try_from(tick).expect("tick index fits usize")];
    Timeline {
        due,
        first_token: at(first_token_tick),
        completion: at(completion_tick),
        tokens,
    }
}

/// Latency limits a request must meet to count toward SLO attainment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Time-to-first-token limit, seconds.
    pub ttft: f64,
    /// Time-per-output-token limit, seconds.
    pub tpot: f64,
}

/// Outcome counts of one run, for every request that was due.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Requests due in the run (each counts once, however it ended).
    pub sent: usize,
    /// Retired before the drain deadline.
    pub succeeded: usize,
    /// Bounced at submission by a full queue.
    pub rejected: usize,
    /// Not retired by the drain deadline (including any never submitted).
    pub failed: usize,
    /// Retired within both SLO limits.
    pub within_slo: usize,
}

impl Accounting {
    /// Folds retired timelines into the counts: `rejected` were bounced,
    /// and everything due that neither retired nor bounced failed.
    #[must_use]
    pub fn tally(sent: usize, rejected: usize, retired: &[Timeline], slo: Slo) -> Self {
        let within_slo = retired
            .iter()
            .filter(|t| t.ttft() <= slo.ttft && t.tpot().is_none_or(|x| x <= slo.tpot))
            .count();
        Self {
            sent,
            succeeded: retired.len(),
            rejected,
            failed: sent.saturating_sub(retired.len() + rejected),
            within_slo,
        }
    }

    /// Share of sent requests that retired within the SLO; rejected and
    /// failed requests count as misses.
    #[must_use]
    pub fn slo_attainment(&self) -> f64 {
        ratio(self.within_slo, self.sent)
    }

    /// `(rejected + failed) / sent`.
    #[must_use]
    pub fn error_share(&self) -> f64 {
        ratio(self.rejected + self.failed, self.sent)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
    fn beyond(n: usize, p: f64) -> usize {
        n - nearest_rank(n, p)
    }

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(10, 95.0), 10);
        assert_eq!(nearest_rank(7, 0.0), 1);
        assert_eq!(percentile(&ascending(100), 99.0), Some(99.0));
        assert_eq!(percentile(&ascending(3), 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond → reported.
        let q = supported_quantile(&ascending(1000), 99.0).unwrap();
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(q.value, 990.0);
        assert_eq!(q.percentile, 99.0);
        assert_eq!(q.samples, 1000);
        // 999 samples: rank 990 leaves only 9 beyond → not reported, and
        // no lower percentile is put in its place.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(supported_quantile(&ascending(999), 99.0), None);
    }

    #[test]
    fn small_samples_support_only_lower_percentiles() {
        let q = supported_quantile(&ascending(30), 50.0).unwrap();
        assert_eq!(q.value, 15.0, "p50 of 30 has 15 beyond it");
        assert_eq!(supported_quantile(&ascending(30), 99.0), None);
        assert_eq!(supported_quantile(&ascending(10), 50.0), None);
        assert_eq!(supported_quantile(&[], 50.0), None);
        // p90 needs 100 samples.
        assert_eq!(
            supported_quantile(&ascending(100), 90.0).unwrap().value,
            90.0
        );
        assert_eq!(supported_quantile(&ascending(99), 90.0), None);
        // Unsorted input is sorted first.
        let mut shuffled = ascending(40);
        shuffled.reverse();
        assert_eq!(supported_quantile(&shuffled, 50.0).unwrap().value, 20.0);
    }

    #[test]
    fn ttft_and_tpot_come_from_tick_ends_and_due_times() {
        // Ticks 0..=4 end at 10, 20, 30, 40, 50 ms.
        let tick_end = [0.010, 0.020, 0.030, 0.040, 0.050];
        // Due at 5 ms, first token in tick 1, retired in tick 4 after 4
        // tokens: TTFT 15 ms, TPOT (50 − 20) / 3 = 10 ms.
        let t = timeline(&tick_end, 0.005, 1, 4, 4);
        assert!((t.ttft() - 0.015).abs() < 1e-12);
        assert!((t.tpot().unwrap() - 0.010).abs() < 1e-12);
        // A one-token request has no TPOT.
        assert_eq!(timeline(&tick_end, 0.0, 2, 2, 1).tpot(), None);
    }

    #[test]
    fn rejected_and_failed_requests_are_slo_misses_and_errors() {
        let slo = Slo {
            ttft: 0.1,
            tpot: 0.01,
        };
        let fast = Timeline {
            due: 0.0,
            first_token: 0.05,
            completion: 0.09,
            tokens: 5,
        };
        let slow_first = Timeline {
            first_token: 0.2,
            completion: 0.24,
            ..fast
        };
        let slow_tail = Timeline {
            completion: 0.5,
            ..fast
        };
        // 10 sent: 3 retired (one within SLO), 2 rejected, 5 never retired.
        let a = Accounting::tally(10, 2, &[fast, slow_first, slow_tail], slo);
        assert_eq!(
            a,
            Accounting {
                sent: 10,
                succeeded: 3,
                rejected: 2,
                failed: 5,
                within_slo: 1,
            }
        );
        assert!((a.slo_attainment() - 0.1).abs() < 1e-12);
        assert!((a.error_share() - 0.7).abs() < 1e-12);
        assert_eq!(Accounting::tally(0, 0, &[], slo).error_share(), 0.0);
    }
}
