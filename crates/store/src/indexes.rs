//! Per-port sorted secondary indexes over one run's trace tables.
//!
//! A shard holds one run, so a key is `(processor, port, element index)`,
//! all interned: processor and port are [`Sym`]s, the element index a
//! packed [`IndexKey`]. The index keeps one slice per `(processor, port)`,
//! found through a processor directory: a vector indexed by the dense
//! processor symbol (less the run's first one), holding that processor's
//! few port slices. A slice is a column of its distinct element indexes,
//! sorted and searched alone, beside a column of their rows. The key
//! column holds 16-byte [`IndexKey`]s, four to a cache line, spilled keys
//! included (see [`crate::symbols`] for the byte layout), so a binary
//! search touches as few lines as the column allows. A key's only
//! row — one producing invocation per element, the common case — sits
//! inline in the row column; a key filed again (a cross product's inner
//! port) moves its rows to a list that grows by push. Filing a row is a
//! binary search plus a push, wherever the key sorts — or one compare,
//! when it sorts after the column's last key, as keys mostly arrive in
//! order — and nothing is allocated per key.
//!
//! Every probe finds its port slice once and then searches its key column.
//! Element indexes are ordered lexicographically (the packed encoding
//! preserves that order), which gives the two access paths lineage queries
//! need:
//!
//! * **ancestors** — rows whose index is a (non-strict) prefix of the query
//!   index, for coarse rows such as whole-value transfers: one exact probe
//!   per prefix, `|p| + 1` in all (the empty prefix, which sorts first,
//!   reads the column's first key without a search);
//! * **descendants** — rows whose index *extends* the query index, for a
//!   query that addresses a sub-collection: they are contiguous from the
//!   query index onwards, so one scan from there bounds them.
//!
//! An element index is a path of list positions, and a run's column is
//! almost always whole lists: `[0] … [n−1]`, or `n` lists of `m` keys. So
//! each prefix's search first tries the position the list shape predicts —
//! child `c` of a list of single keys at `c` past its parent, of a list of
//! `w`-key lists at `c·w` past it — and keeps that guess only when it is
//! the search's own answer: the key there sorts at or past the prefix and
//! the key before it below. Any other column (gaps, coarse rows, ragged
//! lists, spilled keys) falls back to the binary search, so the rows,
//! their order and every [`ProbeStats`] count are the search's.

use crate::catalog::PortCardinality;
use crate::stats::ProbeStats;
use crate::symbols::{IndexKey, Sym};

/// Tags a row-column entry that names one of [`PortSlice::lists`] instead
/// of holding its key's only row. Row positions never reach this bit.
const LIST: u64 = 1 << 63;

/// The entries of one `(processor, port)`: distinct keys in sorted order,
/// searched alone, and a parallel row column. A key's only row sits inline
/// in the column; a key filed more than once (a cross product's inner
/// port) holds `LIST | i` and keeps its rows, in insertion order, in
/// `lists[i]`.
#[derive(Debug, Clone)]
struct PortSlice {
    port: Sym,
    keys: Vec<IndexKey>,
    rows: Vec<u64>,
    lists: Vec<Vec<u64>>,
}

/// The slice every probe of an absent `(processor, port)` searches.
static EMPTY: PortSlice = PortSlice::new(Sym::MISSING);

impl PortSlice {
    const fn new(port: Sym) -> Self {
        PortSlice { port, keys: Vec::new(), rows: Vec::new(), lists: Vec::new() }
    }

    /// The rows filed under the `i`-th key.
    fn rows(&self, i: usize) -> &[u64] {
        let r = &self.rows[i];
        if r & LIST == 0 {
            std::slice::from_ref(r)
        } else {
            &self.lists[(r & !LIST) as usize]
        }
    }

    /// Files `row` under `index`; whether the key is new to the slice.
    fn file(&mut self, index: IndexKey, row: u64) -> bool {
        debug_assert_eq!(row & LIST, 0, "row position {row} collides with the list tag");
        // Keys recorded or replayed in order append after one compare.
        let at = match self.keys.last() {
            Some(last) if *last < index => Err(self.keys.len()),
            _ => self.keys.binary_search(&index),
        };
        match at {
            Ok(i) => {
                let r = self.rows[i];
                if r & LIST == 0 {
                    self.rows[i] = LIST | self.lists.len() as u64;
                    self.lists.push(vec![r, row]);
                } else {
                    self.lists[(r & !LIST) as usize].push(row);
                }
                false
            }
            Err(i) => {
                self.keys.insert(i, index);
                self.rows.insert(i, row);
                true
            }
        }
    }
}

/// Where a search of `keys[base..]` for `prefix`, the probe's `k`-component
/// prefix, lands, when the list shape under `parent` (its `k - 1`-component
/// prefix, whose children start at `base`) predicts it; `None` to search.
///
/// Child `c` of a list of single keys sits at `base + c`; of a list of
/// lists `w` keys each, at `base + c·w`, `w` read off the column's last key
/// when that key lies under `parent`. A guess is taken only when it is the
/// search's own answer — the first key at or past `prefix` — so gaps, coarse
/// rows and ragged lists merely fall back to the search.
fn positional(
    keys: &[IndexKey],
    base: usize,
    parent: &IndexKey,
    prefix: &IndexKey,
    k: usize,
) -> Option<usize> {
    let c = prefix.packed_component(k - 1)? as usize;
    let last = keys.last()?;
    let width = match last.packed_component(k - 1) {
        Some(end) if parent.is_prefix_of(last) => ((keys.len() - base) / (end as usize + 1)).max(1),
        _ => 1,
    };
    let at = base + c * width;
    let at_or_past = keys.get(at).map_or(at == keys.len(), |key| key >= prefix);
    (at_or_past && (at == base || keys[at - 1] < *prefix)).then_some(at)
}

/// A secondary index mapping `(processor, port, element index)` keys to row
/// positions. Several rows may share one key (e.g. several invocations
/// consuming the same whole-value input).
#[derive(Debug, Default, Clone)]
pub struct CompositeIndex {
    /// The processor directory: entry `i` holds the port slices of
    /// processor symbol `first + i`. A workflow's processors are interned
    /// together, so a run's range stays short even when the store's symbol
    /// table spans many workflows.
    first: u32,
    by_processor: Vec<Vec<PortSlice>>,
    /// Distinct keys over all slices.
    key_count: usize,
}

impl CompositeIndex {
    fn slice(&self, processor: Sym, port: Sym) -> Option<&PortSlice> {
        let ports = self.by_processor.get(processor.0.wrapping_sub(self.first) as usize)?;
        ports.iter().find(|s| s.port == port)
    }

    /// Files `row` under `(processor, port, index)`, after any rows already
    /// filed under the same key.
    pub fn insert(&mut self, processor: Sym, port: Sym, index: IndexKey, row: u64) {
        debug_assert_ne!(processor, Sym::MISSING);
        if self.by_processor.is_empty() || processor.0 < self.first {
            let gap = self.first.saturating_sub(processor.0) as usize;
            self.by_processor.splice(0..0, std::iter::repeat_with(Vec::new).take(gap));
            self.first = processor.0;
        }
        let p = (processor.0 - self.first) as usize;
        if p >= self.by_processor.len() {
            self.by_processor.resize_with(p + 1, Vec::new);
        }
        let ports = &mut self.by_processor[p];
        let at = match ports.iter().position(|s| s.port == port) {
            Some(i) => i,
            None => {
                ports.push(PortSlice::new(port));
                ports.len() - 1
            }
        };
        if ports[at].file(index, row) {
            self.key_count += 1;
        }
    }

    /// Appends to `out` the rows related to `index` in either direction:
    /// ancestors (coarser rows covering it) plus strict descendants (finer
    /// rows inside it). This is the general element-addressing lookup of
    /// the provenance graph: a binding `P:X[p]` is connected to stored rows
    /// at any granularity that overlaps `p`.
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
        out: &mut Vec<u64>,
    ) {
        let slice = self.slice(processor, port).unwrap_or(&EMPTY);
        let keys = &slice.keys[..];
        // Each prefix sorts after the shorter ones, so every search resumes
        // where the previous one stopped; the descendants start where the
        // exact key's search lands. The empty prefix sorts before every
        // key, so its search would land on 0: it reads the first key alone.
        let (mut from, mut exact): (usize, &[u64]) = (0, &[]);
        let mut parent = IndexKey::from_components(&[]);
        for k in 0..=index.len() {
            stats.count_index_lookup();
            let prefix = index.prefix(k);
            if k > 0 {
                // The parent's children start just past its own key, if filed.
                let base = from + usize::from(!exact.is_empty());
                from = match positional(keys, base, &parent, &prefix, k) {
                    Some(at) => at,
                    None => from + keys[from..].partition_point(|key| *key < prefix),
                };
            }
            exact = match keys.get(from) {
                Some(key) if *key == prefix => slice.rows(from),
                _ => &[],
            };
            stats.count_records(exact.len());
            out.extend_from_slice(exact);
            parent = prefix;
        }
        stats.count_index_lookup();
        let descendants = keys[from..].iter().take_while(|key| index.is_prefix_of(key));
        for (i, key) in (from..).zip(descendants) {
            let rows = slice.rows(i);
            stats.count_records(rows.len());
            if key != index {
                out.extend(rows.iter().filter(|r| !exact.contains(r)));
            }
        }
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
            keys: s.keys.len() as u64,
            rows: (0..s.keys.len()).map(|i| s.rows(i).len() as u64).sum(),
            max_depth: s.keys.iter().map(IndexKey::len).max().unwrap_or(0),
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
        probe(ix, Sym(proc), Sym(port), &ik(idx), &mut ProbeStats::new())
    }

    fn probe(
        ix: &CompositeIndex,
        p: Sym,
        x: Sym,
        idx: &IndexKey,
        stats: &mut ProbeStats,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        ix.get_overlapping(p, x, idx, stats, &mut out);
        out
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
        probe(&ix, Sym(0), Sym(0), &ik(&[0]), &mut stats);
        // Prefixes [] and [0], then the scan under [0].
        assert_eq!(stats.index_lookups, 3);
        // [] and [0] on the chain; [0], [0,0] and [0,1] on the scan.
        assert_eq!(stats.records_read, 2 + 3);
        let mut stats = ProbeStats::new();
        probe(&ix, Sym::MISSING, Sym(0), &ik(&[0, 1]), &mut stats);
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
    /// other shapes sit at the packing limits: too deep or just shallow
    /// enough (eight against nine components), or a component at the
    /// largest packed value or above it, after a prefix the short shapes
    /// share.
    fn components() -> impl Strategy<Value = Vec<u32>> {
        prop_oneof![
            proptest::collection::vec(0u32..3, 0..4),
            proptest::collection::vec(0u32..2, 9..11),
            proptest::collection::vec(0xFFFEu32..0x1_0001, 1..3),
            proptest::collection::vec(0u32..2, 8..10),
            (proptest::collection::vec(0u32..2, 0..9), 0xFFFDu32..0x1_0001).prop_map(
                |(mut prefix, last)| {
                    prefix.push(last);
                    prefix
                }
            ),
        ]
    }

    const CASES: u32 = if cfg!(miri) { 4 } else { 256 };

    /// One case: `(processor, port, index, row)` filings, repeats that file
    /// an earlier filing's key again, and `(processor, port, index)` probes.
    type Case = (Vec<(u32, u32, Vec<u32>, u64)>, Vec<(usize, u64)>, Vec<(u32, u32, Vec<u32>)>);

    fn cases() -> impl Strategy<Value = Case> {
        prop_oneof![
            (
                // Processors 0, 3, 6 and 9: interned with gaps, filed in any
                // order.
                proptest::collection::vec(
                    ((0u32..4).prop_map(|p| 3 * p), 0u32..2, components(), 0u64..24),
                    0..40,
                ),
                // Keys filed again after later keys: a 2nd or a 3rd row each.
                proptest::collection::vec((0usize..40, 1u64..3), 0..6),
                proptest::collection::vec((0u32..13, 0u32..3, components()), 1..12),
            ),
            list_shapes(),
        ]
    }

    /// A column shaped like the collections a run files — a flat list
    /// `[0..n)`, an `n×m` grid or a ragged two-level list, `n, m ≤ 20` — so
    /// probes take the positional path. Some elements are left out (gaps),
    /// a whole-value `[]` row and coarse `[i]` rows may join them, and all
    /// are filed into one port in shuffled order. The probes name every
    /// element, one past the end of each list, and components that spill.
    fn list_shapes() -> impl Strategy<Value = Case> {
        // Per top-level element: `None` for a leaf `[i]`, `Some(m)` for the
        // list `[i, 0..m)`.
        prop_oneof![
            (1usize..21).prop_map(|n| vec![None; n]),
            (1usize..21, 1usize..21).prop_map(|(n, m)| vec![Some(m); n]),
            proptest::collection::vec((0usize..21).prop_map(Some), 1..21),
        ]
        .prop_flat_map(|lists: Vec<Option<usize>>| {
            let (n, elements) = (lists.len() as u32, list_elements(&lists).len());
            (
                Just(lists),
                // A gap rate in eighths, then one draw per element.
                (0u8..3, proptest::collection::vec(0u8..8, elements)),
                // The whole-value row, then up to two coarse `[i]` rows.
                (any::<bool>(), proptest::collection::vec(0..n, 0..3)),
                // Shuffle keys for every filing.
                proptest::collection::vec(any::<u64>(), elements + 3),
            )
        })
        .prop_map(|(lists, (rate, draws), (whole, coarse), order)| {
            let elements = list_elements(&lists);
            let mut filings: Vec<(u64, Vec<u32>)> = elements
                .iter()
                .zip(&draws)
                .filter(|(_, &draw)| draw >= rate)
                .map(|(e, _)| e.clone())
                .chain(whole.then(Vec::new))
                .chain(coarse.iter().map(|&i| vec![i]))
                .zip(order)
                .map(|(idx, key)| (key, idx))
                .collect();
            filings.sort();
            let inserts = (0..).zip(filings).map(|(row, (_, idx))| (0, 0, idx, row)).collect();
            let n = lists.len() as u32;
            let past_end = [vec![], vec![n], vec![n, 0], vec![SPILLS]];
            let probes = elements
                .into_iter()
                .chain(past_end)
                .chain((0..).zip(&lists).flat_map(|(i, list)| {
                    let m = list.unwrap_or(0) as u32;
                    [vec![i], vec![i, m], vec![i, SPILLS]]
                }))
                .map(|idx| (0, 0, idx))
                .collect();
            (inserts, Vec::new(), probes)
        })
    }

    /// The smallest component that does not pack.
    const SPILLS: u32 = 0x1_0000;

    /// The element indexes of a [`list_shapes`] shape, in order.
    fn list_elements(lists: &[Option<usize>]) -> Vec<Vec<u32>> {
        (0..)
            .zip(lists)
            .flat_map(|(i, list)| match *list {
                None => vec![vec![i]],
                Some(m) => (0..m as u32).map(|j| vec![i, j]).collect(),
            })
            .collect()
    }

    /// Files `inserts` and `repeats` into a [`CompositeIndex`] and the
    /// [`Reference`] alike, then checks that every probe finds the same
    /// rows in the same order at the same cost.
    fn matches_the_reference((inserts, repeats, probes): Case) {
        let mut ix = CompositeIndex::default();
        let mut reference = Reference::default();
        let mut file = |p: u32, x: u32, idx: &[u32], row: u64| {
            ix.insert(Sym(p), Sym(x), ik(idx), row);
            reference.0.entry((Sym(p), Sym(x), ik(idx))).or_default().push(row);
        };
        for (p, x, idx, row) in &inserts {
            file(*p, *x, idx, *row);
        }
        for (at, times) in repeats {
            if inserts.is_empty() {
                break;
            }
            let (p, x, idx, row) = &inserts[at % inserts.len()];
            for extra in 0..times {
                file(*p, *x, idx, row + 24 * (extra + 1));
            }
        }
        assert_eq!(ix.key_count(), reference.0.len());
        for (p, x, idx) in probes {
            // 10 and 11 lie past the directory; 12 stands in for MISSING.
            let p = if p == 12 { Sym::MISSING } else { Sym(p) };
            let key = ik(&idx);
            let (mut got, mut want) = (ProbeStats::new(), ProbeStats::new());
            let rows = probe(&ix, p, Sym(x), &key, &mut got);
            assert_eq!(rows, reference.get_overlapping(p, Sym(x), &key, &mut want), "{idx:?}");
            assert_eq!(got, want, "{idx:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn sorted_slices_match_the_ordered_map_reference(case in cases()) {
            matches_the_reference(case);
        }
    }

    /// The same check from a seed taken from `CRASH_TORTURE_SEED` (printed,
    /// so a failing pass replays), for randomized passes beyond the fixed
    /// stream above.
    #[test]
    fn seeded_reference_check() {
        let seed = std::env::var("CRASH_TORTURE_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0x1DE7);
        eprintln!("index reference seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
        let mut rng = proptest::test_runner::TestRng::from_name(&seed.to_string());
        for _ in 0..CASES {
            matches_the_reference(cases().generate(&mut rng));
        }
    }
}
