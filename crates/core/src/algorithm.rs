//! Algorithm selection and connectivity-check modes.

use std::fmt;

use fsm_types::{FsmError, Result};

/// The five mining algorithms proposed by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// §3.1 — recursive FP-trees per projected database (bottom-up), with the
    /// connectivity filter applied as a post-processing step.
    MultiTree,
    /// §3.2 — a single FP-tree per frequent edge whose node-path subsets are
    /// counted during one traversal, with post-processing.
    SingleTree,
    /// §3.3 — a single FP-tree per frequent edge mined top-down, with
    /// post-processing.
    TopDown,
    /// §3.4 + §3.5 — vertical bit-vector mining of all frequent edge
    /// collections, with post-processing.
    Vertical,
    /// §4 — direct vertical mining of connected collections only, guided by
    /// edge neighbourhoods; no post-processing step is needed.
    DirectVertical,
}

impl Algorithm {
    /// All five algorithms in paper order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::MultiTree,
        Algorithm::SingleTree,
        Algorithm::TopDown,
        Algorithm::Vertical,
        Algorithm::DirectVertical,
    ];

    /// Returns `true` if the algorithm needs the §3.5 post-processing step to
    /// remove disconnected collections.
    pub fn needs_postprocessing(self) -> bool {
        !matches!(self, Algorithm::DirectVertical)
    }

    /// Returns `true` if the algorithm mines with bit-vector intersections
    /// rather than FP-trees.
    pub fn is_vertical(self) -> bool {
        matches!(self, Algorithm::Vertical | Algorithm::DirectVertical)
    }

    /// Short stable identifier used in reports and CSV output.
    pub fn key(self) -> &'static str {
        match self {
            Algorithm::MultiTree => "multi-tree",
            Algorithm::SingleTree => "single-tree",
            Algorithm::TopDown => "top-down",
            Algorithm::Vertical => "vertical",
            Algorithm::DirectVertical => "direct-vertical",
        }
    }

    /// The inverse of [`Algorithm::key`], also taking `direct` for
    /// `direct-vertical`; an unknown key is [`FsmError::InvalidConfig`].
    pub fn from_key(key: &str) -> Result<Self> {
        match key {
            "direct" => Ok(Self::DirectVertical),
            key => Self::ALL
                .into_iter()
                .find(|algorithm| algorithm.key() == key)
                .ok_or_else(|| FsmError::config(format!("unknown algorithm '{key}'"))),
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// How the connectivity of an edge collection is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConnectivityMode {
    /// Exact union–find over the edges' endpoints (default).
    #[default]
    Exact,
    /// The paper's §3.5 vertex-frequency rule: every member edge must have an
    /// endpoint shared with at least one other member edge.  This is a
    /// necessary condition only; it is kept for fidelity and for the ablation
    /// that measures how often it differs from the exact check.
    PaperRule,
}

impl fmt::Display for ConnectivityMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectivityMode::Exact => f.write_str("exact"),
            ConnectivityMode::PaperRule => f.write_str("paper-rule"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_direct_algorithm_skips_postprocessing() {
        for algorithm in Algorithm::ALL {
            assert_eq!(
                algorithm.needs_postprocessing(),
                algorithm != Algorithm::DirectVertical
            );
        }
    }

    #[test]
    fn vertical_classification() {
        assert!(Algorithm::Vertical.is_vertical());
        assert!(Algorithm::DirectVertical.is_vertical());
        assert!(!Algorithm::MultiTree.is_vertical());
        assert!(!Algorithm::SingleTree.is_vertical());
        assert!(!Algorithm::TopDown.is_vertical());
    }

    #[test]
    fn keys_are_unique_and_displayed() {
        let keys: std::collections::BTreeSet<&str> =
            Algorithm::ALL.iter().map(|a| a.key()).collect();
        assert_eq!(keys.len(), 5);
        for algorithm in Algorithm::ALL {
            assert_eq!(Algorithm::from_key(algorithm.key()).unwrap(), algorithm);
        }
        assert_eq!(
            Algorithm::from_key("direct").unwrap(),
            Algorithm::DirectVertical
        );
        assert!(Algorithm::from_key("nope").is_err());
        assert_eq!(Algorithm::MultiTree.to_string(), "multi-tree");
        assert_eq!(ConnectivityMode::Exact.to_string(), "exact");
        assert_eq!(ConnectivityMode::PaperRule.to_string(), "paper-rule");
    }
}
