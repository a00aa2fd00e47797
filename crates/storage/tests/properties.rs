//! Property-based tests for the storage substrate.

use fsm_storage::{BitVec, RowStore, StorageBackend};
use proptest::prelude::*;

proptest! {
    /// `clear_range` equals clearing bit by bit, for arbitrary ranges.
    #[test]
    fn clear_range_is_a_bitwise_clear(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        start in 0usize..320,
        len in 0usize..320,
    ) {
        let mut fast = BitVec::from_bools(bits.iter().copied());
        let mut slow = fast.clone();
        fast.clear_range(start, start + len);
        for i in start..(start + len).min(bits.len()) {
            slow.set(i, false);
        }
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(fast.len(), bits.len());
    }
    /// BitVec round-trips through bytes for arbitrary contents.
    #[test]
    fn bitvec_byte_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let v = BitVec::from_bools(bits.iter().copied());
        let back = BitVec::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(&v, &back);
        prop_assert_eq!(v.len(), bits.len());
        for (i, bit) in bits.iter().enumerate() {
            prop_assert_eq!(v.get(i), *bit);
        }
    }

    /// Popcount equals the number of true inputs, and iter_ones agrees.
    #[test]
    fn bitvec_counting_is_exact(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let v = BitVec::from_bools(bits.iter().copied());
        let expected = bits.iter().filter(|b| **b).count() as u64;
        prop_assert_eq!(v.count_ones(), expected);
        prop_assert_eq!(v.iter_ones().count() as u64, expected);
        let ones: Vec<usize> = v.iter_ones().collect();
        for w in ones.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Intersection is commutative and `and_count` matches the materialised
    /// result.
    #[test]
    fn bitvec_and_is_commutative(
        a in proptest::collection::vec(any::<bool>(), 0..200),
        b in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let va = BitVec::from_bools(a);
        let vb = BitVec::from_bools(b);
        prop_assert_eq!(va.and(&vb).count_ones(), vb.and(&va).count_ones());
        prop_assert_eq!(va.and(&vb).count_ones(), va.and_count(&vb));
        // Intersection support can never exceed either operand's support.
        prop_assert!(va.and_count(&vb) <= va.count_ones());
        prop_assert!(va.and_count(&vb) <= vb.count_ones());
    }

    /// The fused `and_into` kernel agrees with the allocating `and` exactly —
    /// same bits, same length, and the returned count matches the popcount —
    /// even when the scratch buffer is reused across differently-sized
    /// operands.
    #[test]
    fn bitvec_and_into_matches_and(
        a in proptest::collection::vec(any::<bool>(), 0..300),
        b in proptest::collection::vec(any::<bool>(), 0..300),
        c in proptest::collection::vec(any::<bool>(), 0..100),
    ) {
        let va = BitVec::from_bools(a);
        let vb = BitVec::from_bools(b);
        let vc = BitVec::from_bools(c);
        let mut scratch = BitVec::new();
        // First use populates the buffer...
        let count = va.and_into(&vb, &mut scratch);
        prop_assert_eq!(&scratch, &va.and(&vb));
        prop_assert_eq!(count, va.and(&vb).count_ones());
        prop_assert_eq!(count, va.and_count(&vb));
        // ...and reuse with different operands must fully overwrite it.
        let count = vc.and_into(&va, &mut scratch);
        prop_assert_eq!(&scratch, &vc.and(&va));
        prop_assert_eq!(count, vc.and(&va).count_ones());
        prop_assert_eq!(scratch.len(), vc.len());
    }

    /// `and_count` equals materialising the intersection and counting it.
    #[test]
    fn bitvec_and_count_matches_materialised(
        a in proptest::collection::vec(any::<bool>(), 0..300),
        b in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        let va = BitVec::from_bools(a);
        let vb = BitVec::from_bools(b);
        prop_assert_eq!(va.and_count(&vb), va.and(&vb).count_ones());
    }

    /// `write_bytes` into a reused buffer equals a fresh `to_bytes`.
    #[test]
    fn bitvec_write_bytes_matches_to_bytes(
        a in proptest::collection::vec(any::<bool>(), 0..300),
        b in proptest::collection::vec(any::<bool>(), 0..300),
    ) {
        let mut buf = Vec::new();
        for bits in [a, b] {
            let v = BitVec::from_bools(bits);
            v.write_bytes(&mut buf);
            prop_assert_eq!(&buf, &v.to_bytes());
            prop_assert_eq!(BitVec::from_bytes(&buf).unwrap(), v);
        }
    }

    /// Dropping a prefix behaves like slicing the boolean sequence.
    #[test]
    fn bitvec_drop_prefix_is_slicing(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        n in 0usize..350,
    ) {
        let mut v = BitVec::from_bools(bits.iter().copied());
        v.drop_prefix(n);
        let expected: Vec<bool> = bits.iter().skip(n).copied().collect();
        prop_assert_eq!(v.len(), expected.len());
        for (i, bit) in expected.iter().enumerate() {
            prop_assert_eq!(v.get(i), *bit, "index {}", i);
        }
    }

    /// A RowStore returns exactly what was written, on both backends.
    #[test]
    fn rowstore_roundtrip(
        rows in proptest::collection::btree_map(0usize..32, proptest::collection::vec(any::<u8>(), 0..200), 0..16)
    ) {
        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let mut store = RowStore::with_page_size(backend, 32).unwrap();
            for (id, payload) in &rows {
                store.put_row(*id, payload).unwrap();
            }
            prop_assert_eq!(store.num_rows(), rows.len());
            for (id, payload) in &rows {
                prop_assert_eq!(&store.get_row(*id).unwrap(), payload);
            }
        }
    }
}
