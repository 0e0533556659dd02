//! Per-port sorted secondary indexes over one run's trace tables.
//!
//! A shard holds one run, so a key is `(processor, port, element index)`,
//! all interned: processor and port are [`Sym`]s, the element index a
//! packed [`IndexKey`]. The index keeps one slice per `(processor, port)`:
//! its distinct element indexes, sorted, each with the row positions filed
//! under it in insertion order. Filing a row under a key the slice already
//! holds is a binary search and a push, wherever the key sorts.
//!
//! Every probe finds its port slice once and then binary-searches it.
//! Element indexes are ordered lexicographically (the packed encoding
//! preserves that order), which gives the two access paths lineage
//! queries need:
//!
//! * **ancestors** — rows whose index is a (non-strict) prefix of the query
//!   index, for coarse rows such as whole-value transfers: one exact probe
//!   per prefix, `|p| + 1` in all;
//! * **descendants** — rows whose index *extends* the query index, for a
//!   query that addresses a sub-collection: they are contiguous from the
//!   query index onwards, so one scan from there bounds them.

use crate::catalog::PortCardinality;
use crate::stats::ProbeStats;
use crate::symbols::{IndexKey, Sym};

/// The entries of one `(processor, port)`: distinct keys in sorted order,
/// each with its row positions.
#[derive(Debug, Clone)]
struct PortSlice {
    processor: Sym,
    port: Sym,
    entries: Vec<(IndexKey, Vec<u64>)>,
}

/// A secondary index mapping `(processor, port, element index)` keys to row
/// positions. Several rows may share one key (e.g. several invocations
/// consuming the same whole-value input).
#[derive(Debug, Default, Clone)]
pub struct CompositeIndex {
    /// Port slices, sorted by `(processor, port)`.
    slices: Vec<PortSlice>,
    /// Distinct keys over all slices.
    key_count: usize,
}

impl CompositeIndex {
    fn slice(&self, processor: Sym, port: Sym) -> Option<&PortSlice> {
        let at = self.slices.binary_search_by_key(&(processor, port), |s| (s.processor, s.port));
        at.ok().map(|i| &self.slices[i])
    }

    /// Files `row` under `(processor, port, index)`, after any rows already
    /// filed under the same key.
    pub fn insert(&mut self, processor: Sym, port: Sym, index: IndexKey, row: u64) {
        let at =
            match self.slices.binary_search_by_key(&(processor, port), |s| (s.processor, s.port)) {
                Ok(i) => i,
                Err(i) => {
                    self.slices.insert(i, PortSlice { processor, port, entries: Vec::new() });
                    i
                }
            };
        let entries = &mut self.slices[at].entries;
        match entries.binary_search_by(|(k, _)| k.cmp(&index)) {
            Ok(i) => entries[i].1.push(row),
            Err(i) => {
                entries.insert(i, (index, vec![row]));
                self.key_count += 1;
            }
        }
    }

    /// The rows related to `index` in either direction: ancestors (coarser
    /// rows covering it) plus strict descendants (finer rows inside it).
    /// This is the general element-addressing lookup of the provenance
    /// graph: a binding `P:X[p]` is connected to stored rows at any
    /// granularity that overlaps `p`.
    ///
    /// Ancestors come first, coarsest first; then descendants in key
    /// order, leaving out rows already found under the exact key. Costs
    /// `|index| + 2` index lookups — the prefix chain (whose last probe is
    /// the exact key) plus one descendant scan — and counts every row the
    /// probes touch as read, the exact key's rows on both paths.
    pub fn get_overlapping(
        &self,
        processor: Sym,
        port: Sym,
        index: &IndexKey,
        stats: &mut ProbeStats,
    ) -> Vec<u64> {
        let entries = self.slice(processor, port).map_or(&[][..], |s| &s.entries[..]);
        let mut out = Vec::new();
        // Each prefix sorts after the shorter ones, so every search resumes
        // where the previous one stopped; the descendants start where the
        // exact key's search lands.
        let (mut from, mut exact): (usize, &[u64]) = (0, &[]);
        for k in 0..=index.len() {
            stats.count_index_lookup();
            let prefix = index.prefix(k);
            from += entries[from..].partition_point(|(key, _)| *key < prefix);
            exact = match entries.get(from) {
                Some((key, rows)) if *key == prefix => rows,
                _ => &[],
            };
            stats.count_records(exact.len());
            out.extend_from_slice(exact);
        }
        stats.count_index_lookup();
        for (key, rows) in entries[from..].iter().take_while(|(key, _)| index.is_prefix_of(key)) {
            stats.count_records(rows.len());
            if key != index {
                out.extend(rows.iter().filter(|r| !exact.contains(r)));
            }
        }
        out
    }

    /// Total number of distinct keys in the index.
    pub fn key_count(&self) -> usize {
        self.key_count
    }

    /// Cardinality of one `(processor, port)` slice: distinct keys, total
    /// rows, and the longest stored element index. A walk over the slice —
    /// cheap enough for `explain`, and never on a query hot path.
    pub fn port_stats(&self, processor: Sym, port: Sym) -> PortCardinality {
        let Some(s) = self.slice(processor, port) else { return PortCardinality::default() };
        PortCardinality {
            keys: s.entries.len() as u64,
            rows: s.entries.iter().map(|(_, rows)| rows.len() as u64).sum(),
            max_depth: s.entries.iter().map(|(key, _)| key.len()).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::ops::Bound;

    use proptest::prelude::*;

    use super::*;

    fn ik(idx: &[u32]) -> IndexKey {
        IndexKey::from_components(idx)
    }

    fn overlapping(ix: &CompositeIndex, proc: u32, port: u32, idx: &[u32]) -> Vec<u64> {
        ix.get_overlapping(Sym(proc), Sym(port), &ik(idx), &mut ProbeStats::new())
    }

    // Symbol layout used by the sample: P=0, Q=1; ports y=0, z=1.
    fn sample() -> CompositeIndex {
        let mut ix = CompositeIndex::default();
        for (proc, port, idx, row) in [
            (0, 0, &[1][..], 5), // out of order
            (0, 0, &[], 1),
            (0, 0, &[0, 1], 4),
            (0, 0, &[0], 2),
            (0, 0, &[0, 0], 3),
            (0, 1, &[0], 6), // other port
            (1, 0, &[0], 7), // other processor
        ] {
            ix.insert(Sym(proc), Sym(port), ik(idx), row);
        }
        ix
    }

    #[test]
    fn exact_lookup_hits_only_its_key() {
        let ix = sample();
        // Its own rows and the whole-value row above it; no siblings.
        assert_eq!(overlapping(&ix, 0, 0, &[1]), vec![1, 5]);
        assert_eq!(overlapping(&ix, 0, 0, &[9]), vec![1]);
    }

    #[test]
    fn prefix_scan_returns_contiguous_extensions() {
        let ix = sample();
        assert_eq!(overlapping(&ix, 0, 0, &[0]), vec![1, 2, 3, 4]);
        // The empty index covers the whole (processor, port) slice.
        assert_eq!(overlapping(&ix, 0, 0, &[]), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn overlapping_respects_processor_and_port_boundaries() {
        let ix = sample();
        assert_eq!(overlapping(&ix, 1, 0, &[]), vec![7]);
        assert_eq!(overlapping(&ix, 0, 1, &[]), vec![6]);
        // A MISSING symbol probes and finds nothing.
        assert!(overlapping(&ix, Sym::MISSING.0, 0, &[0]).is_empty());
        assert!(overlapping(&ix, 0, Sym::MISSING.0, &[0]).is_empty());
    }

    #[test]
    fn ancestors_walk_the_prefix_chain() {
        let ix = sample();
        assert_eq!(overlapping(&ix, 0, 0, &[0, 1]), vec![1, 2, 4]); // [], [0], [0,1]
    }

    #[test]
    fn overlapping_combines_both_directions_without_duplicates() {
        let mut ix = sample();
        // Row 2 also sits under a descendant of [0]: it is reported once,
        // from the exact key.
        ix.insert(Sym(0), Sym(0), ik(&[0, 2]), 2);
        assert_eq!(overlapping(&ix, 0, 0, &[0]), vec![1, 2, 3, 4]);
    }

    #[test]
    fn stats_count_lookups_and_records() {
        let ix = sample();
        let mut stats = ProbeStats::new();
        ix.get_overlapping(Sym(0), Sym(0), &ik(&[0]), &mut stats);
        // Prefixes [] and [0], then the scan under [0].
        assert_eq!(stats.index_lookups, 3);
        // [] and [0] on the chain; [0], [0,0] and [0,1] on the scan.
        assert_eq!(stats.records_read, 2 + 3);
        let mut stats = ProbeStats::new();
        ix.get_overlapping(Sym::MISSING, Sym(0), &ik(&[0, 1]), &mut stats);
        assert_eq!((stats.index_lookups, stats.records_read), (4, 0));
    }

    #[test]
    fn repeated_keys_keep_insertion_order_and_count_once() {
        let mut ix = sample();
        ix.insert(Sym(0), Sym(0), ik(&[0]), 9);
        ix.insert(Sym(0), Sym(0), ik(&[0]), 8);
        assert_eq!(overlapping(&ix, 0, 0, &[0]), vec![1, 2, 9, 8, 3, 4]);
        assert_eq!(ix.key_count(), 7);
        let card = ix.port_stats(Sym(0), Sym(0));
        assert_eq!((card.keys, card.rows, card.max_depth), (5, 7, 2));
    }

    #[test]
    fn spilled_indices_keep_prefix_contiguity() {
        // Deep (spilled) element indices must interleave correctly with
        // packed ones under one (processor, port).
        let mut ix = CompositeIndex::default();
        ix.insert(Sym(0), Sym(0), ik(&[1]), 1);
        ix.insert(Sym(0), Sym(0), ik(&[1, 0, 0, 0, 0, 0, 0, 0, 0]), 2); // spilled
        ix.insert(Sym(0), Sym(0), ik(&[2]), 3);
        assert_eq!(overlapping(&ix, 0, 0, &[1]), vec![1, 2]);
    }

    /// The model the sorted slices are checked against: one ordered map
    /// over whole `(processor, port, index)` keys, probed by `|p| + 1`
    /// point lookups and one range scan.
    #[derive(Default)]
    struct Reference(BTreeMap<(Sym, Sym, IndexKey), Vec<u64>>);

    impl Reference {
        fn get_overlapping(
            &self,
            p: Sym,
            x: Sym,
            index: &IndexKey,
            stats: &mut ProbeStats,
        ) -> Vec<u64> {
            let mut out = Vec::new();
            let mut exact = Vec::new();
            for k in 0..=index.len() {
                stats.count_index_lookup();
                let rows = self.0.get(&(p, x, index.prefix(k))).cloned().unwrap_or_default();
                stats.count_records(rows.len());
                out.extend_from_slice(&rows);
                exact = rows;
            }
            stats.count_index_lookup();
            let start = Bound::Included((p, x, index.clone()));
            for ((kp, kx, key), rows) in self.0.range((start, Bound::Unbounded)) {
                if (*kp, *kx) != (p, x) || !index.is_prefix_of(key) {
                    break;
                }
                stats.count_records(rows.len());
                out.extend(rows.iter().filter(|r| !exact.contains(r)));
            }
            out
        }
    }

    /// Short indexes over a small alphabet collide, nest and repeat; the
    /// other two shapes spill (too deep, or a component too large to pack).
    fn components() -> impl Strategy<Value = Vec<u32>> {
        prop_oneof![
            proptest::collection::vec(0u32..3, 0..4),
            proptest::collection::vec(0u32..2, 9..11),
            proptest::collection::vec(0xFFFEu32..0x1_0001, 1..3),
        ]
    }

    const CASES: u32 = if cfg!(miri) { 4 } else { 256 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn sorted_slices_match_the_ordered_map_reference(
            inserts in proptest::collection::vec((0u32..3, 0u32..2, components(), 0u64..24), 0..40),
            probes in proptest::collection::vec((0u32..5, 0u32..3, components()), 1..12),
        ) {
            let mut ix = CompositeIndex::default();
            let mut reference = Reference::default();
            for (p, x, idx, row) in inserts {
                ix.insert(Sym(p), Sym(x), ik(&idx), row);
                reference.0.entry((Sym(p), Sym(x), ik(&idx))).or_default().push(row);
            }
            prop_assert_eq!(ix.key_count(), reference.0.len());
            for (p, x, idx) in probes {
                // Processor 3 is never inserted; 4 stands in for MISSING.
                let p = if p == 4 { Sym::MISSING } else { Sym(p) };
                let key = ik(&idx);
                let (mut got, mut want) = (ProbeStats::new(), ProbeStats::new());
                let rows = ix.get_overlapping(p, Sym(x), &key, &mut got);
                prop_assert_eq!(rows, reference.get_overlapping(p, Sym(x), &key, &mut want));
                prop_assert_eq!(got, want);
            }
        }
    }
}
