//! Batches: consecutive groups of transactions as they arrive on the stream.

use std::fmt;

use crate::edge::EdgeId;
use crate::transaction::Transaction;

/// Monotonically increasing identifier of a batch since the beginning of the
/// stream (not the position within the window).
pub type BatchId = u64;

/// A batch of transactions — the unit by which the sliding window advances.
///
/// The paper's experiments group the stream into batches of 6 000 records and
/// keep a window of `w = 5` batches; the running example uses batches of three
/// graphs each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// Stream-wide identifier of this batch (0 for the first batch ever).
    pub id: BatchId,
    transactions: Vec<Transaction>,
}

impl Batch {
    /// Creates an empty batch with the given stream identifier.
    pub fn new(id: BatchId) -> Self {
        Self {
            id,
            transactions: Vec::new(),
        }
    }

    /// Builds a batch from a list of transactions.
    pub fn from_transactions(id: BatchId, transactions: Vec<Transaction>) -> Self {
        Self { id, transactions }
    }

    /// Appends a transaction to the batch.
    pub fn push(&mut self, transaction: Transaction) {
        self.transactions.push(transaction);
    }

    /// The transactions in arrival order.
    #[inline]
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Returns `true` if the batch has no transactions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Iterates over the transactions in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.transactions.iter()
    }

    /// Total number of edge occurrences across all transactions (useful for
    /// density statistics).
    pub fn total_edge_occurrences(&self) -> usize {
        self.transactions.iter().map(Transaction::len).sum()
    }

    /// The largest edge any transaction names, `None` if none names one.
    /// A transaction is canonical, so its last edge is its largest: one
    /// look per transaction, not per edge.
    pub fn max_edge(&self) -> Option<EdgeId> {
        self.transactions
            .iter()
            .filter_map(|transaction| transaction.edges().last())
            .max()
            .copied()
    }
}

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}[{} txs]", self.id, self.transactions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut b = Batch::new(3);
        b.push(Transaction::from_raw([0, 1]));
        b.push(Transaction::from_raw([2]));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.id, 3);
        let lens: Vec<usize> = b.iter().map(Transaction::len).collect();
        assert_eq!(lens, vec![2, 1]);
        assert_eq!(b.total_edge_occurrences(), 3);
    }

    #[test]
    fn from_transactions_preserves_order() {
        let b = Batch::from_transactions(
            0,
            vec![Transaction::from_raw([5]), Transaction::from_raw([1, 2])],
        );
        assert_eq!(b.transactions()[0].edges()[0].0, 5);
        assert_eq!(b.to_string(), "B0[2 txs]");
        assert_eq!(b.max_edge(), Some(EdgeId::new(5)));
    }

    #[test]
    fn empty_batch() {
        let b = Batch::new(0);
        assert!(b.is_empty());
        assert_eq!(b.total_edge_occurrences(), 0);
        assert_eq!(b.max_edge(), None);
    }
}
