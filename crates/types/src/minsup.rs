//! Minimum-support thresholds.

use std::fmt;

/// A user-specified minimum support threshold.
///
/// The paper states thresholds as absolute frequencies in the running example
/// (`minsup = 2`) and as relative percentages in the evaluation; both forms
/// are supported and resolved against the number of transactions currently in
/// the sliding window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MinSup {
    /// An absolute number of transactions a pattern must appear in.
    Absolute(u64),
    /// A fraction (0.0 ..= 1.0) of the transactions in the current window.
    Relative(f64),
}

impl MinSup {
    /// Creates an absolute threshold.
    pub const fn absolute(count: u64) -> Self {
        Self::Absolute(count)
    }

    /// Creates a relative threshold from a fraction in `[0, 1]`.
    ///
    /// Values are clamped into the valid range so that a slightly negative or
    /// >1 value produced by arithmetic does not panic later.
    pub fn relative(fraction: f64) -> Self {
        Self::Relative(fraction.clamp(0.0, 1.0))
    }

    /// Resolves the threshold to an absolute count given the number of
    /// transactions in the current window.
    ///
    /// Relative thresholds round up (a pattern must appear in *at least* the
    /// given fraction of transactions) and never resolve below 1, matching the
    /// convention of the FIMI tooling the paper's datasets come from.
    pub fn resolve(&self, window_transactions: usize) -> u64 {
        match *self {
            Self::Absolute(count) => count.max(1),
            Self::Relative(fraction) => {
                let raw = (fraction * window_transactions as f64).ceil() as u64;
                raw.max(1)
            }
        }
    }
}

impl Default for MinSup {
    fn default() -> Self {
        Self::Absolute(1)
    }
}

impl fmt::Display for MinSup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Absolute(count) => write!(f, "minsup={count}"),
            Self::Relative(fraction) => write!(f, "minsup={:.2}%", fraction * 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_resolution_is_identity_but_at_least_one() {
        assert_eq!(MinSup::absolute(2).resolve(1000), 2);
        assert_eq!(MinSup::absolute(0).resolve(1000), 1);
    }

    #[test]
    fn relative_resolution_rounds_up() {
        assert_eq!(MinSup::relative(0.5).resolve(6), 3);
        assert_eq!(MinSup::relative(0.5).resolve(7), 4);
        assert_eq!(MinSup::relative(0.001).resolve(100), 1);
        assert_eq!(MinSup::relative(0.0).resolve(100), 1);
        assert_eq!(MinSup::relative(1.0).resolve(100), 100);
    }

    #[test]
    fn relative_clamps_out_of_range_inputs() {
        assert_eq!(MinSup::relative(1.5).resolve(10), 10);
        assert_eq!(MinSup::relative(-0.5).resolve(10), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MinSup::absolute(2).to_string(), "minsup=2");
        assert_eq!(MinSup::relative(0.25).to_string(), "minsup=25.00%");
    }

    #[test]
    fn default_is_absolute_one() {
        assert_eq!(MinSup::default().resolve(50), 1);
    }
}
