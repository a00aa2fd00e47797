//! Order statistics over latency samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule;
/// `0.0` for an empty slice.  Sorts a copy, so callers keep arrival order.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a handful of per-round values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value a quarter of the way in from the *better* end of a handful of
/// per-round values: the lower quartile when smaller is better, the upper
/// quartile otherwise.
///
/// Why not the median of rounds: on a shared host, interference only ever
/// slows a round down, and it comes in phases of seconds to tens of
/// seconds.  The median of rounds inherits a phase as soon as it covers
/// half a run; the best quartile moves only once three quarters of the
/// rounds are disturbed, and unlike the single best round it does not rest
/// on one lucky sample.
pub fn best_quartile(values: &[f64], lower_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if !lower_is_better {
        sorted.reverse();
    }
    sorted[sorted.len() / 4]
}

/// A median that shrugs off slow phases: the median of every `chunk`
/// consecutive samples, then the best (lowest) quartile of those chunk
/// medians.  With `chunk` a whole number of cycles every chunk saw the same
/// work mix, so chunk medians differ only by interference.
pub fn steady_median(samples: &[u64], chunk: usize) -> f64 {
    let medians: Vec<f64> = samples
        .chunks(chunk.max(1))
        .filter(|c| c.len() == chunk || samples.len() < chunk)
        .map(|c| quantile(c, 0.5))
        .collect();
    best_quartile(&medians, true)
}

/// Which of a schedule position's samples, counted from the fastest, is its
/// quiet latency (see [`Profile`]): the second fastest.
pub const QUIET_RANK: usize = 2;

/// Step latencies of a periodic schedule, kept apart by position in the
/// period, and the *quiet latency* of each position: its
/// [`QUIET_RANK`]-fastest sample.
///
/// A position does the same work every time it comes round, so its samples
/// differ only by what the host did to them — and a shared host only ever
/// slows a step down.  On the 2-vCPU sandbox this was defined on it does so
/// in phases that last from seconds to a hundred seconds and stretch a step
/// by a quarter to a half, with quiet gaps of a second or two inside them.
/// Whole-run means and medians follow those phases, and so does any middling
/// quantile (ten 40-second runs of `dense_full` cut from one trace ranged
/// over 25 % of their median by the low decile per position, over 8 % by the
/// second-fastest sample); the fastest few samples of a position need only
/// one quiet moment each.  The second fastest rather than the fastest, so
/// that no value rests on a single reading.
///
/// What it cannot see is work that is *not* tied to a position — a
/// compaction that fires every few thousand steps, say — or a change that
/// makes steps slower only some of the time.  The run's wall-clock
/// throughput, printed beside it, and the traced run's whole-run medians
/// still show both.
#[derive(Debug, Clone)]
pub struct Profile {
    positions: Vec<Vec<u64>>,
}

impl Profile {
    /// An empty profile of a schedule that repeats every `period` steps.
    pub fn new(period: usize) -> Self {
        Self {
            positions: vec![Vec::new(); period.max(1)],
        }
    }

    /// Adds consecutive samples, the first taken at schedule step
    /// `first_step`.
    pub fn add(&mut self, first_step: u64, samples: &[u64]) {
        let period = self.positions.len() as u64;
        for (i, sample) in samples.iter().enumerate() {
            self.positions[((first_step + i as u64) % period) as usize].push(*sample);
        }
    }

    /// The quiet latency of every position that has samples, in position
    /// order.
    pub fn quiet(&self) -> Vec<u64> {
        self.positions
            .iter()
            .filter(|samples| !samples.is_empty())
            .map(|samples| {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                sorted[QUIET_RANK.min(sorted.len()) - 1]
            })
            .collect()
    }

    /// Fewest samples any sampled position has.
    pub fn fewest_samples(&self) -> usize {
        self.positions
            .iter()
            .map(Vec::len)
            .filter(|len| *len > 0)
            .min()
            .unwrap_or(0)
    }
}

/// The span the middle half of a handful of per-round values covers: from
/// the value a quarter of the way in from the bottom to the value a quarter
/// of the way in from the top.  `None` for an empty slice.
pub fn middle_half(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let quarter = sorted.len() / 4;
    Some((sorted[quarter], sorted[last - quarter]))
}

/// Smallest and largest of a handful of per-round values.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        })
}

/// Samples a percentile needs so that at least ten lie beyond it.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.95), 95.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(samples_needed(0.95), 200);
    }

    #[test]
    fn medians_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(
            middle_half(&[6.0, 1.0, 5.0, 2.0, 4.0, 3.0]),
            Some((2.0, 5.0))
        );
        assert_eq!(middle_half(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(middle_half(&[]), None);
    }

    #[test]
    fn best_quartile_ignores_a_slow_majority() {
        // Six rounds, four of them in a slow phase.
        let latencies = [5.0, 9.0, 9.5, 5.1, 9.2, 9.9];
        assert_eq!(best_quartile(&latencies, true), 5.1);
        let throughputs = [100.0, 60.0, 58.0, 99.0, 61.0, 55.0];
        assert_eq!(best_quartile(&throughputs, false), 99.0);
        assert_eq!(best_quartile(&[], true), 0.0);
    }

    #[test]
    fn profile_keeps_positions_apart_and_ignores_slow_phases() {
        // Period 2: position 0 costs 10, position 1 costs 50; the second
        // half of the run is a slow phase that doubles everything.
        let mut profile = Profile::new(2);
        let quiet: Vec<u64> = [10, 50].repeat(30);
        let slow: Vec<u64> = [20, 100].repeat(30);
        profile.add(4, &quiet);
        profile.add(64, &slow);
        // One freak reading per position does not become its quiet latency.
        profile.add(124, &[1, 2]);
        assert_eq!(profile.quiet(), vec![10, 50]);
        assert_eq!(profile.fewest_samples(), 61);
        // A run that starts at an odd step lands on the other position first.
        let mut shifted = Profile::new(2);
        shifted.add(1, &[50, 10, 50, 10]);
        assert_eq!(shifted.quiet(), vec![10, 50]);
        // Positions never visited are left out.
        let mut sparse = Profile::new(4);
        sparse.add(2, &[7]);
        assert_eq!(sparse.quiet(), vec![7]);
    }

    #[test]
    fn steady_median_uses_whole_chunks() {
        // Two quiet chunks, two slow ones, and a ragged tail that is dropped.
        let mut samples = vec![10; 8];
        samples.extend([30; 8]);
        samples.extend([11; 8]);
        samples.extend([40; 8]);
        samples.extend([1; 3]);
        assert_eq!(steady_median(&samples, 8), 11.0);
        assert_eq!(steady_median(&[7, 9, 8], 8), 8.0);
    }
}
