//! The DSTable against a brute-force recount of its window, batch by batch.

use fsm_dstable::{DsTable, DsTableConfig};
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeId, Support, Transaction};
use proptest::prelude::*;

/// The `{pivot}`-projected database of `window` by definition: the suffix
/// after `pivot` of every transaction holding it, identical suffixes merged.
fn recount_projection(window: &[Transaction], pivot: EdgeId) -> Vec<(Vec<EdgeId>, Support)> {
    let mut suffixes: Vec<Vec<EdgeId>> = window
        .iter()
        .filter_map(|t| {
            let at = t.edges().iter().position(|&e| e == pivot)?;
            Some(t.edges()[at + 1..].to_vec())
        })
        .filter(|suffix| !suffix.is_empty())
        .collect();
    suffixes.sort();
    let mut merged: Vec<(Vec<EdgeId>, Support)> = Vec::new();
    for suffix in suffixes {
        match merged.last_mut() {
            Some((prev, count)) if *prev == suffix => *count += 1,
            _ => merged.push((suffix, 1)),
        }
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every batch, on both backends, the supports and every item's
    /// projection equal a recount over the window's transactions, and the
    /// disk table holds exactly 8 B per entry.  Batch `b` draws its items
    /// from `0..2 + 2b`, so items keep first appearing mid-stream, on
    /// sliding batches too; a drawn transaction may be empty.
    #[test]
    fn dstable_matches_a_recount_of_its_window(
        w in 1usize..5,
        expected_edges in 0usize..4,
        stream in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::btree_set(0u32..16, 0..5), 0..4),
            1..9,
        ),
    ) {
        let batches: Vec<Batch> = stream
            .iter()
            .enumerate()
            .map(|(b, transactions)| {
                let domain = 2 + 2 * b as u32;
                let transactions = transactions
                    .iter()
                    .map(|items| Transaction::from_raw(items.iter().map(|&i| i % domain)))
                    .collect();
                Batch::from_transactions(b as u64, transactions)
            })
            .collect();
        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let disk = !matches!(backend, StorageBackend::Memory);
            let mut table = DsTable::new(DsTableConfig {
                window: WindowConfig::new(w).unwrap(),
                backend,
                expected_edges,
            })
            .unwrap();
            for (b, batch) in batches.iter().enumerate() {
                table.ingest_batch(batch).unwrap();
                let window: Vec<Transaction> = batches[(b + 1).saturating_sub(w)..=b]
                    .iter()
                    .flat_map(|batch| batch.iter().cloned())
                    .collect();
                prop_assert_eq!(table.num_transactions(), window.len());

                let supports = table.singleton_supports().unwrap();
                prop_assert_eq!(supports.len(), table.num_items());
                for &(item, support) in &supports {
                    let recount = window.iter().filter(|t| t.edges().contains(&item)).count();
                    prop_assert_eq!(support, recount as Support, "support of {:?}", item);
                    prop_assert_eq!(
                        table.project(item).unwrap(),
                        recount_projection(&window, item),
                        "projection on {:?}", item
                    );
                }
                let entries: Support = supports.iter().map(|&(_, s)| s).sum();
                prop_assert_eq!(table.on_disk_bytes(), if disk { 8 * entries } else { 0 });
            }
        }
    }
}
