//! Property-based tests for the parallel-primitives substrate: every
//! primitive is checked against its obvious sequential specification on
//! arbitrary inputs.

use proptest::prelude::*;
use push_pull::primitives::{gather, scan, segreduce, sort, BitVec, Spa};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exclusive_scan_matches_spec(data in prop::collection::vec(0usize..1000, 0..500)) {
        let mut got = data.clone();
        let total = scan::exclusive_scan_in_place(&mut got);
        let mut acc = 0usize;
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(got[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn scan_offsets_are_csr_shaped(lengths in prop::collection::vec(0usize..50, 0..200)) {
        let offsets = scan::exclusive_scan_offsets(&lengths);
        prop_assert_eq!(offsets.len(), lengths.len() + 1);
        prop_assert_eq!(offsets[0], 0);
        for (i, &l) in lengths.iter().enumerate() {
            prop_assert_eq!(offsets[i + 1] - offsets[i], l);
        }
    }

    #[test]
    fn radix_sort_keys_matches_std(mut keys in prop::collection::vec(0u32..1_000_000, 0..3000)) {
        let mut expect = keys.clone();
        expect.sort_unstable();
        sort::sort_keys(&mut keys, 1_000_000);
        prop_assert_eq!(keys, expect);
    }

    #[test]
    fn radix_sort_pairs_is_stable(pairs in prop::collection::vec((0u32..64, 0u64..1000), 0..2000)) {
        let (mut keys, mut vals): (Vec<u32>, Vec<u64>) = pairs.iter().copied().unzip();
        let mut expect: Vec<(u32, u64)> = pairs.clone();
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        sort::sort_pairs(&mut keys, &mut vals, 64);
        let got: Vec<(u32, u64)> = keys.into_iter().zip(vals).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn segreduce_sums_equal_total(mut pairs in prop::collection::vec((0u32..100, 1u64..50), 0..1000)) {
        pairs.sort_by_key(|&(k, _)| k);
        let keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
        let vals: Vec<u64> = pairs.iter().map(|&(_, v)| v).collect();
        let (rk, rv) = segreduce::segmented_reduce_by_key(&keys, &vals, |a, b| a + b);
        // Keys unique and sorted, totals preserved.
        prop_assert!(rk.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(rv.iter().sum::<u64>(), vals.iter().sum::<u64>());
        prop_assert_eq!(rk.len(), {
            let mut uniq = keys.clone();
            uniq.dedup();
            uniq.len()
        });
    }

    #[test]
    fn gather_segments_reassembles(segments in prop::collection::vec(prop::collection::vec(0u32..1000, 0..30), 0..40)) {
        // Lay segments out in a shuffled flat buffer, then gather back.
        let lengths: Vec<usize> = segments.iter().map(Vec::len).collect();
        let offsets = scan::exclusive_scan_offsets(&lengths);
        let mut src = Vec::new();
        let mut starts = Vec::new();
        for seg in &segments {
            starts.push(src.len());
            src.extend_from_slice(seg);
        }
        let out = gather::gather_segments(&src, &starts, &offsets, 8);
        let expect: Vec<u32> = segments.into_iter().flatten().collect();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn bitvec_set_matches_btreeset(ops in prop::collection::vec(0usize..500, 0..300)) {
        let mut bv = BitVec::new(500);
        let mut reference = std::collections::BTreeSet::new();
        for &i in &ops {
            let newly = bv.set(i);
            prop_assert_eq!(newly, reference.insert(i));
        }
        prop_assert_eq!(bv.count_ones(), reference.len());
        let ones: Vec<usize> = bv.iter_ones().collect();
        let expect: Vec<usize> = reference.into_iter().collect();
        prop_assert_eq!(ones, expect);
    }

    #[test]
    fn spa_accumulate_matches_btreemap(ops in prop::collection::vec((0u32..200, 1i64..100), 0..400)) {
        let mut spa = Spa::new(200, 0i64);
        let mut reference: std::collections::BTreeMap<u32, i64> = Default::default();
        for &(i, v) in &ops {
            spa.accumulate(i, v, |a, b| a + b);
            *reference.entry(i).or_insert(0) += v;
        }
        let (ids, vals) = spa.drain_sorted();
        let got: Vec<(u32, i64)> = ids.into_iter().zip(vals).collect();
        let expect: Vec<(u32, i64)> = reference.into_iter().collect();
        prop_assert_eq!(got, expect);
    }
}
