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

/// Tracks which batches are currently inside the window and how many
/// transactions each holds, without retaining the transactions themselves.
///
/// This is the boundary information the DSTree and the DSTable keep beside
/// their window, so that a slide knows which batch leaves and how many
/// transactions it takes.  The DSMatrix keeps none of its own: its segment
/// store holds one record per batch, and its boundaries are read from those.
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

    /// Total number of transactions across all batches in the window
    /// (`|T|` in the paper).
    pub fn total_transactions(&self) -> usize {
        self.batches.iter().map(|(_, n)| *n).sum()
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
        // Window of w = 2 batches, three transactions each: the boundaries
        // fall after columns 3 and 6.
        let mut window = SlidingWindow::new(WindowConfig::new(2).unwrap());
        window.push(0, 3);
        assert_eq!(window.total_transactions(), 3);
        window.push(1, 3);
        assert_eq!(window.total_transactions(), 6);
        assert_eq!(window.num_batches(), 2);

        // Batch B3 arrives: B1 is evicted with its three columns, and the
        // window is six columns again.
        let outcome = window.push(2, 3);
        assert_eq!(outcome.evicted, Some((0, 3)));
        assert_eq!(window.total_transactions(), 6);
        // B2 leaves next.
        assert_eq!(window.push(3, 3).evicted, Some((1, 3)));
    }

    #[test]
    fn window_grows_until_full_without_evicting() {
        let mut window = SlidingWindow::new(WindowConfig::new(3).unwrap());
        assert_eq!(window.num_batches(), 0);
        for id in 0..3u64 {
            let outcome = window.push(id, 2);
            assert!(outcome.evicted.is_none());
        }
        assert_eq!(window.num_batches(), 3);
        let outcome = window.push(3, 2);
        assert_eq!(outcome.evicted, Some((0, 2)));
        assert_eq!(window.num_batches(), 3);
    }

    #[test]
    fn uneven_batches_produce_uneven_boundaries() {
        // The boundaries are the running totals: 2, 7, 8.
        let mut window = SlidingWindow::new(WindowConfig::new(3).unwrap());
        let totals: Vec<usize> = [(0, 2), (1, 5), (2, 1)]
            .into_iter()
            .map(|(id, transactions)| {
                window.push(id, transactions);
                window.total_transactions()
            })
            .collect();
        assert_eq!(totals, [2, 7, 8]);
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
