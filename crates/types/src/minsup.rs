//! Minimum-support thresholds.

use std::fmt;

use crate::error::{FsmError, Result};

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
    /// Values are clamped into the valid range so that a value slightly
    /// outside it, produced by arithmetic, does not panic later; input goes
    /// through [`MinSup::checked_relative`], which refuses what this clamps.
    pub fn relative(fraction: f64) -> Self {
        Self::Relative(fraction.clamp(0.0, 1.0))
    }

    /// Creates a relative threshold from a fraction in `(0, 1]`; anything
    /// else, NaN and the infinities included, is [`FsmError::InvalidConfig`].
    pub fn checked_relative(fraction: f64) -> Result<Self> {
        if fraction > 0.0 && fraction <= 1.0 {
            Ok(Self::Relative(fraction))
        } else {
            Err(FsmError::config(format!(
                "a relative minsup must be a fraction in (0, 1], got {fraction}"
            )))
        }
    }

    /// Parses a threshold as the command lines spell it: a whole number is an
    /// absolute count, anything else a fraction [`MinSup::checked_relative`]
    /// accepts, or [`FsmError::InvalidConfig`].
    pub fn parse(raw: &str) -> Result<Self> {
        if let Ok(count) = raw.parse() {
            return Ok(Self::Absolute(count));
        }
        Self::checked_relative(raw.parse().unwrap_or(f64::NAN)).map_err(|_| {
            FsmError::config(format!(
                "--minsup must be a positive integer or a fraction in (0, 1], got '{raw}'"
            ))
        })
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
    fn checked_fractions_refuse_what_relative_clamps() {
        for refused in [
            f64::NAN,
            0.0,
            -0.0,
            -0.5,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let err = MinSup::checked_relative(refused).unwrap_err();
            assert!(
                matches!(err, FsmError::InvalidConfig(_)),
                "{refused}: {err}"
            );
        }
        assert_eq!(
            MinSup::checked_relative(1.0).unwrap(),
            MinSup::Relative(1.0)
        );
        assert_eq!(
            MinSup::checked_relative(0.05).unwrap(),
            MinSup::Relative(0.05)
        );
    }

    #[test]
    fn parse_reads_counts_and_checked_fractions() {
        assert_eq!(MinSup::parse("20").unwrap(), MinSup::Absolute(20));
        assert_eq!(MinSup::parse("0.5").unwrap(), MinSup::Relative(0.5));
        assert_eq!(MinSup::parse("1").unwrap(), MinSup::Absolute(1));
        for refused in ["0.0", "-0.5", "1.5", "NaN", "inf", "-3", "half", ""] {
            let err = MinSup::parse(refused).unwrap_err();
            assert!(
                matches!(&err, FsmError::InvalidConfig(message) if message.contains(refused)),
                "{refused:?}: {err}"
            );
        }
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
