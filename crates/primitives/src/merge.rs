//! Heap-based multiway (k-way) merge.
//!
//! §3.1 of the paper analyzes column-based matvec as a multiway merge of the
//! `nnz(f)` selected columns: `O(nnz(m_f⁺) · log nnz(f))` memory accesses.
//! The GPU implementation replaces the merge with concatenate + radix sort
//! (§6.2) because sorting maps better onto wide machines. Here the merge
//! combines only the few per-chunk SPA harvests of the `SpaMerge` column
//! kernel, so `k` is the chunk count, not `nnz(f)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merge `k` sorted `(key, value)` lists into one sorted list, combining
/// values of equal keys with `op` (equivalent to merge followed by
/// segmented reduce, fused).
///
/// Each input list must be sorted by key ascending with *unique* keys within
/// the list (CSR column slices satisfy this). Ties across lists are combined
/// in list order, so non-commutative `op` behaves deterministically.
#[must_use]
pub fn multiway_merge_reduce<V, F>(lists: &[&[(u32, V)]], op: F) -> Vec<(u32, V)>
where
    V: Copy,
    F: Fn(V, V) -> V,
{
    match lists.len() {
        0 => Vec::new(),
        1 => lists[0].to_vec(),
        2 => merge2(lists[0], lists[1], &op),
        _ => merge_heap(lists, &op),
    }
}

fn merge2<V: Copy, F: Fn(V, V) -> V>(a: &[(u32, V)], b: &[(u32, V)], op: &F) -> Vec<(u32, V)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, op(a[i].1, b[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn merge_heap<V: Copy, F: Fn(V, V) -> V>(lists: &[&[(u32, V)]], op: &F) -> Vec<(u32, V)> {
    let total: usize = lists.iter().map(|l| l.len()).sum();
    let mut out: Vec<(u32, V)> = Vec::with_capacity(total);
    // Heap entries: (key, list index, position) — list index breaks ties so
    // equal keys pop in list order (determinism for non-commutative ops).
    let mut heap: BinaryHeap<Reverse<(u32, usize, usize)>> = BinaryHeap::with_capacity(lists.len());
    for (li, l) in lists.iter().enumerate() {
        if let Some(&(k, _)) = l.first() {
            heap.push(Reverse((k, li, 0)));
        }
    }
    while let Some(Reverse((k, li, pos))) = heap.pop() {
        let v = lists[li][pos].1;
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 = op(last.1, v),
            _ => out.push((k, v)),
        }
        if pos + 1 < lists[li].len() {
            heap.push(Reverse((lists[li][pos + 1].0, li, pos + 1)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_none_and_one() {
        let empty: Vec<&[(u32, u32)]> = vec![];
        assert!(multiway_merge_reduce(&empty, |a, b| a + b).is_empty());
        let l: &[(u32, u32)] = &[(1, 10), (5, 50)];
        assert_eq!(
            multiway_merge_reduce(&[l], |a, b| a + b),
            vec![(1, 10), (5, 50)]
        );
    }

    #[test]
    fn merge_two_disjoint() {
        let a: &[(u32, i32)] = &[(1, 1), (3, 3)];
        let b: &[(u32, i32)] = &[(2, 2), (4, 4)];
        assert_eq!(
            multiway_merge_reduce(&[a, b], |x, y| x + y),
            vec![(1, 1), (2, 2), (3, 3), (4, 4)]
        );
    }

    #[test]
    fn merge_two_with_collisions() {
        let a: &[(u32, i32)] = &[(1, 1), (3, 3)];
        let b: &[(u32, i32)] = &[(1, 10), (3, 30), (9, 90)];
        assert_eq!(
            multiway_merge_reduce(&[a, b], |x, y| x + y),
            vec![(1, 11), (3, 33), (9, 90)]
        );
    }

    #[test]
    fn merge_many_or_semiring() {
        // Several frontier columns claiming overlapping children with OR.
        let a: &[(u32, bool)] = &[(0, true), (4, true)];
        let b: &[(u32, bool)] = &[(4, true), (5, true)];
        let c: &[(u32, bool)] = &[(0, true), (5, true), (6, true)];
        let merged = multiway_merge_reduce(&[a, b, c], |x, y| x || y);
        assert_eq!(merged, vec![(0, true), (4, true), (5, true), (6, true)]);
    }

    #[test]
    fn merge_heap_tie_order_is_list_order() {
        // Non-commutative "keep first": list order must win.
        let a: &[(u32, &str)] = &[(7, "a")];
        let b: &[(u32, &str)] = &[(7, "b")];
        let c: &[(u32, &str)] = &[(7, "c")];
        let merged = multiway_merge_reduce(&[a, b, c], |x, _| x);
        assert_eq!(merged, vec![(7, "a")]);
    }

    #[test]
    fn merge_many_matches_sort_reference() {
        // Build 20 pseudo-random sorted unique lists and compare against a
        // concatenate+sort+reduce reference.
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lists: Vec<Vec<(u32, u64)>> = (0..20)
            .map(|_| {
                let mut keys: Vec<u32> = (0..200).map(|_| (next() % 500) as u32).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.into_iter()
                    .map(|k| (k, u64::from(k) * 2 + 1))
                    .collect()
            })
            .collect();
        let refs: Vec<&[(u32, u64)]> = lists.iter().map(Vec::as_slice).collect();
        let merged = multiway_merge_reduce(&refs, |a, b| a + b);

        let mut flat: Vec<(u32, u64)> = lists.iter().flatten().copied().collect();
        flat.sort_by_key(|&(k, _)| k);
        let mut expect: Vec<(u32, u64)> = Vec::new();
        for (k, v) in flat {
            match expect.last_mut() {
                Some(last) if last.0 == k => last.1 += v,
                _ => expect.push((k, v)),
            }
        }
        assert_eq!(merged, expect);
    }
}
