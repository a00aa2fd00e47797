//! Sliding-window bookkeeping.

use std::collections::VecDeque;

use fsm_types::{BatchId, FsmError, Result};

/// Configuration of the sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Number of batches kept in the window (`w` in the paper); private so
    /// that [`WindowConfig::new`] is the only way to set it.
    window_batches: usize,
}

impl WindowConfig {
    /// Creates a configuration, validating that the window holds at least one
    /// batch.
    pub fn new(window_batches: usize) -> Result<Self> {
        if window_batches == 0 {
            return Err(FsmError::config("window must hold at least one batch"));
        }
        Ok(Self { window_batches })
    }

    /// Number of batches kept in the window (`w` in the paper), at least one.
    pub fn window_batches(&self) -> usize {
        self.window_batches
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self { window_batches: 5 }
    }
}

/// What happened when a batch was pushed into the window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlideOutcome {
    /// Identifier of the batch that entered.
    pub entered: BatchId,
    /// Number of transactions the entering batch contributed.
    pub entered_transactions: usize,
    /// If the window was full, the batch that left and how many transactions
    /// (matrix columns) it takes with it.
    pub evicted: Option<(BatchId, usize)>,
}

/// Tracks which batches are currently inside the window and where the batch
/// boundaries fall, without retaining the transactions themselves.
///
/// This is the "boundary information" every capture structure keeps: the
/// DSMatrix keeps exactly `w` global boundary values (one per batch) so that a
/// window slide knows how many leading columns to discard.
#[derive(Debug, Clone, Default)]
pub struct SlidingWindow {
    config: WindowConfig,
    /// (batch id, number of transactions) for each batch in the window,
    /// oldest first.
    batches: VecDeque<(BatchId, usize)>,
}

impl SlidingWindow {
    /// Creates an empty window.  Nothing is reserved for the configured
    /// width: the queue grows with the batches the window actually holds,
    /// so a width no stream ever fills costs nothing.
    pub fn new(config: WindowConfig) -> Self {
        Self {
            config,
            batches: VecDeque::new(),
        }
    }

    /// The window configuration.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Registers the arrival of a batch with `transactions` transactions,
    /// evicting the oldest batch if the window is already full.
    pub fn push(&mut self, id: BatchId, transactions: usize) -> SlideOutcome {
        let evicted = if self.batches.len() == self.config.window_batches {
            self.batches.pop_front()
        } else {
            None
        };
        self.batches.push_back((id, transactions));
        SlideOutcome {
            entered: id,
            entered_transactions: transactions,
            evicted,
        }
    }

    /// Number of batches currently in the window.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// Returns `true` if the window holds no batches yet.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Returns `true` if the window has reached its configured capacity.
    pub fn is_full(&self) -> bool {
        self.batches.len() == self.config.window_batches
    }

    /// Total number of transactions across all batches in the window (the
    /// number of DSMatrix columns, `|T|`).
    pub fn total_transactions(&self) -> usize {
        self.batches.iter().map(|(_, n)| *n).sum()
    }

    /// Cumulative batch boundaries, exactly as the DSMatrix records them:
    /// `boundaries()[i]` is the number of columns up to and including batch
    /// `i` of the window.  Example 1 reports "Boundaries: Cols 3 & 6".
    pub fn boundaries(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.batches.len());
        let mut acc = 0;
        for (_, n) in &self.batches {
            acc += n;
            out.push(acc);
        }
        out
    }

    /// `(batch id, transactions)` of every batch in the window, oldest
    /// first.
    pub fn batches(&self) -> impl ExactSizeIterator<Item = (BatchId, usize)> + '_ {
        self.batches.iter().copied()
    }

    /// Identifier of the oldest batch currently in the window.
    pub fn oldest(&self) -> Option<BatchId> {
        self.batches.front().map(|(id, _)| *id)
    }

    /// Identifier of the newest batch currently in the window.
    pub fn newest(&self) -> Option<BatchId> {
        self.batches.back().map(|(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_rejects_zero_window() {
        assert!(WindowConfig::new(0).is_err());
        assert_eq!(WindowConfig::new(5).unwrap().window_batches(), 5);
        assert_eq!(WindowConfig::default().window_batches(), 5);
    }

    #[test]
    fn boundaries_match_paper_example_1() {
        // Window of w = 2 batches, three transactions each.
        let mut window = SlidingWindow::new(WindowConfig::new(2).unwrap());
        window.push(0, 3);
        window.push(1, 3);
        assert_eq!(window.boundaries(), vec![3, 6]);
        assert_eq!(window.total_transactions(), 6);
        assert!(window.is_full());

        // Batch B3 arrives: B1 is evicted, boundaries stay at 3 & 6.
        let outcome = window.push(2, 3);
        assert_eq!(outcome.evicted, Some((0, 3)));
        assert_eq!(window.boundaries(), vec![3, 6]);
        assert!(window.batches().eq([(1, 3), (2, 3)]));
        assert_eq!(window.oldest(), Some(1));
        assert_eq!(window.newest(), Some(2));
    }

    #[test]
    fn window_grows_until_full_without_evicting() {
        let mut window = SlidingWindow::new(WindowConfig::new(3).unwrap());
        assert!(window.is_empty());
        for id in 0..3u64 {
            let outcome = window.push(id, 2);
            assert!(outcome.evicted.is_none());
        }
        assert!(window.is_full());
        let outcome = window.push(3, 2);
        assert_eq!(outcome.evicted, Some((0, 2)));
        assert_eq!(window.num_batches(), 3);
    }

    #[test]
    fn uneven_batches_produce_uneven_boundaries() {
        let mut window = SlidingWindow::new(WindowConfig::new(3).unwrap());
        window.push(0, 2);
        window.push(1, 5);
        window.push(2, 1);
        assert_eq!(window.boundaries(), vec![2, 7, 8]);
        assert_eq!(window.total_transactions(), 8);
    }

    #[test]
    fn slide_outcome_reports_entering_batch() {
        let mut window = SlidingWindow::new(WindowConfig::new(1).unwrap());
        let outcome = window.push(9, 7);
        assert_eq!(outcome.entered, 9);
        assert_eq!(outcome.entered_transactions, 7);
        assert!(outcome.evicted.is_none());
        let outcome = window.push(10, 4);
        assert_eq!(outcome.evicted, Some((9, 7)));
    }
}
