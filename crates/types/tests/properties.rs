//! Property-based tests for the core type invariants.

use std::hash::{DefaultHasher, Hash, Hasher};

use fsm_types::codec::{put_u32, Reader};
use fsm_types::{EdgeCatalog, EdgeId, EdgeSet, MinSup, Transaction, VertexId};
use proptest::prelude::*;

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The sorted, deduplicated ids of `raw`: what an [`EdgeSet`] of them holds.
fn model(raw: &[u32]) -> Vec<EdgeId> {
    let mut ids: Vec<EdgeId> = raw.iter().copied().map(EdgeId::new).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn encode(raw: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    for &id in raw {
        put_u32(&mut out, id);
    }
    out
}

/// An edge set of `raw` built three ways: from the list, grown one id at
/// a time (so a long list crosses from in-place storage to the heap), and
/// decoded from the model's encoding.
fn built_three_ways(raw: &[u32]) -> [EdgeSet; 3] {
    let listed = EdgeSet::from_raw(raw.iter().copied());
    let mut grown = EdgeSet::new();
    for (i, &id) in raw.iter().enumerate() {
        let id = EdgeId::new(id);
        match i {
            0 => grown = EdgeSet::singleton(id),
            _ if i % 2 == 0 => grown.insert(id),
            _ => grown = grown.with(id),
        }
    }
    let ids = model(raw);
    let bytes = encode(&ids.iter().map(|e| e.0).collect::<Vec<_>>());
    let mut reader = Reader::new(&bytes);
    let decoded = EdgeSet::read_canonical(&mut reader, ids.len()).expect("canonical ids");
    reader.finish().expect("every id read");
    [listed, grown, decoded]
}

proptest! {
    /// Transactions are always sorted and duplicate-free regardless of input.
    #[test]
    fn transaction_is_canonical(raw in proptest::collection::vec(0u32..64, 0..40)) {
        let t = Transaction::from_raw(raw.clone());
        let edges = t.edges();
        for w in edges.windows(2) {
            prop_assert!(w[0] < w[1], "not strictly ascending: {:?}", edges);
        }
        for r in raw {
            prop_assert!(t.contains(EdgeId::new(r)));
        }
    }

    /// `suffix_after` returns exactly the members strictly greater than the pivot.
    #[test]
    fn suffix_after_is_strictly_greater(
        raw in proptest::collection::vec(0u32..64, 0..40),
        pivot in 0u32..64,
    ) {
        let t = Transaction::from_raw(raw);
        let pivot = EdgeId::new(pivot);
        let suffix = t.suffix_after(pivot);
        for e in suffix {
            prop_assert!(*e > pivot);
        }
        let expected: Vec<EdgeId> = t.iter().filter(|e| *e > pivot).collect();
        prop_assert_eq!(suffix, expected.as_slice());
    }

    /// Edge sets behave as mathematical sets: insertion order is irrelevant.
    #[test]
    fn edge_set_is_order_insensitive(mut raw in proptest::collection::vec(0u32..64, 0..20)) {
        let forward = EdgeSet::from_raw(raw.clone());
        raw.reverse();
        let backward = EdgeSet::from_raw(raw);
        prop_assert_eq!(forward, backward);
    }

    /// On both sides of the seven ids an edge set holds in place, however it
    /// was built, it behaves as the sorted, deduplicated id list: members,
    /// length, subset, order, equality, hash and `Debug`.
    #[test]
    fn edge_set_matches_a_sorted_vec_across_the_inline_limit(
        raw in proptest::collection::vec(0u32..24, 0..15),
        other in proptest::collection::vec(0u32..24, 0..15),
        probe in 0u32..24,
    ) {
        let ids = model(&raw);
        let other_ids = model(&other);
        let other_set = EdgeSet::from_raw(other);
        for set in built_three_ways(&raw) {
            prop_assert_eq!(set.edges(), ids.as_slice());
            prop_assert_eq!(set.len(), ids.len());
            prop_assert_eq!(set.is_empty(), ids.is_empty());
            prop_assert_eq!(set.contains(EdgeId::new(probe)), ids.contains(&EdgeId::new(probe)));
            prop_assert_eq!(
                set.is_subset_of(&other_set),
                ids.iter().all(|e| other_ids.contains(e))
            );
            prop_assert_eq!(
                other_set.is_subset_of(&set),
                other_ids.iter().all(|e| ids.contains(e))
            );
            prop_assert_eq!(set.cmp(&other_set), ids.cmp(&other_ids));
            prop_assert_eq!(set == other_set, ids == other_ids);
            prop_assert_eq!(hash_of(&set), hash_of(ids.as_slice()));
            prop_assert_eq!(format!("{set:?}"), format!("EdgeSet {{ edges: {ids:?} }}"));
        }
    }

    /// `EdgeSet::read_canonical` accepts and refuses exactly what
    /// `Reader::take_canonical_edges` does, with the same error naming the
    /// same byte and the same bytes consumed, in place and on the heap.
    #[test]
    fn read_canonical_agrees_with_take_canonical_edges(
        raw in proptest::collection::vec(0u32..40, 0..15),
        canonical in any::<bool>(),
        short in any::<bool>(),
    ) {
        let raw = if canonical {
            model(&raw).iter().map(|e| e.0).collect()
        } else {
            raw
        };
        let bytes = encode(&raw);
        // A claimed count one past the ids present is a truncation.
        let count = raw.len() + usize::from(short);
        let mut set_reader = Reader::new(&bytes);
        let set = EdgeSet::read_canonical(&mut set_reader, count);
        let mut list_reader = Reader::new(&bytes);
        let mut list = vec![EdgeId::new(7); 3];
        let listed = list_reader.take_canonical_edges(count, &mut list);
        match (set, listed) {
            (Ok(set), Ok(())) => prop_assert_eq!(set.edges(), list.as_slice()),
            (Err(set), Err(listed)) => {
                prop_assert_eq!(set.to_string(), listed.to_string());
                prop_assert!(list.is_empty());
            }
            (set, listed) => prop_assert!(false, "read_canonical {set:?}, take {listed:?}"),
        }
        prop_assert_eq!(set_reader.remaining(), list_reader.remaining());
    }

    /// Interning the same pairs in any order yields identical neighbourhood
    /// structure sizes (ids may differ, adjacency must not).
    #[test]
    fn catalog_adjacency_is_consistent(pairs in proptest::collection::vec((1u32..8, 1u32..8), 1..20)) {
        let mut cat = EdgeCatalog::new();
        let ids: Vec<EdgeId> = pairs
            .iter()
            .map(|&(u, v)| cat.intern(VertexId::new(u), VertexId::new(v)))
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let (au, av) = cat.endpoints(a).unwrap();
                let (bu, bv) = cat.endpoints(b).unwrap();
                let share = a != b && (au == bu || au == bv || av == bu || av == bv);
                prop_assert_eq!(cat.are_adjacent(a, b), share);
                // neighbors() must be consistent with are_adjacent().
                let in_list = cat.neighbors(a).unwrap().contains(&b);
                prop_assert_eq!(in_list, share);
            }
        }
    }

    /// The exact union-find connectivity check implies the paper's §3.5 rule
    /// (the rule is a necessary condition).
    #[test]
    fn exact_connectivity_implies_paper_rule(
        pairs in proptest::collection::vec((1u32..7, 1u32..7), 1..12),
        pick in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let mut cat = EdgeCatalog::new();
        let ids: Vec<EdgeId> = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| cat.intern(VertexId::new(u), VertexId::new(v)))
            .collect();
        let chosen: Vec<EdgeId> = ids
            .iter()
            .zip(pick.iter())
            .filter_map(|(id, keep)| keep.then_some(*id))
            .collect();
        let set = EdgeSet::from_edges(chosen);
        if set.is_connected(&cat) {
            prop_assert!(set.is_connected_paper_rule(&cat));
        }
    }

    /// MinSup resolution is monotone in the window size and never below one.
    #[test]
    fn minsup_resolution_is_sane(fraction in 0.0f64..1.0, small in 1usize..500, grow in 0usize..500) {
        let ms = MinSup::relative(fraction);
        let large = small + grow;
        prop_assert!(ms.resolve(small) >= 1);
        prop_assert!(ms.resolve(large) >= ms.resolve(small));
        prop_assert!(ms.resolve(large) <= large as u64);
    }
}
