//! Per-run shards and lock-free read snapshots.
//!
//! Every run's rows and composite indexes live in an independent
//! [`RunShard`]. The store holds each shard behind an `Arc` and mutates it
//! with `Arc::make_mut`: while nobody else holds the `Arc`, writes happen
//! in place (the common, contention-free case); when a query has pinned the
//! shard, the first subsequent write clones it — copy-on-write — so the
//! pinned [`ReadView`] keeps observing the exact state it was pinned
//! against (snapshot isolation, for free).
//!
//! A [`ReadView`] is the query-side handle: it clones the shard's `Arc`
//! (plus the shared symbol/value tables) **once**, under one brief read
//! lock, and every probe afterwards runs on plain owned data — zero lock
//! acquisitions for the remainder of plan execution. This is what lets
//! concurrent queries (daemon sessions, a querier beside a writer) run
//! without serialising on the store's `RwLock` (the contention wall the
//! pre-shard layout hit).
//!
//! Stats discipline: the probes a query issues, [`ReadView::rows`] and
//! [`ReadView::bindings_at`], count into a **caller-owned** [`ProbeStats`]
//! and flush nothing, so the query layer attributes exact per-step costs
//! to individual queries even when several run at once against one store;
//! a [`ProbeGuard`] ([`ReadView::probe_guard`]) flushes the caller's
//! totals into the shared [`QueryStats`] atomics exactly once, early
//! returns and panics included. The whole-record reads (the record
//! probes, the run scans) flush through a guard of their own per call.
//!
//! Walks step through row positions: [`ReadView::rows`] fills a
//! caller-owned buffer, so NI and impact keep one buffer per access path
//! for a whole walk and a hop probes the indexes without allocating.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use prov_model::{Binding, Index, PortRef, ProcessorName, RunId, Value, ValueId};

use crate::catalog::{IndexId, PortCardinality};
use crate::indexes::CompositeIndex;
use crate::rows::{
    PortDirection, XferRecord, XferRow, XformPortRecord, XformPortRow, XformRecord, XformRow,
};
use crate::stats::{ProbeGuard, ProbeStats, QueryStats};
use crate::store::StoreError;
use crate::symbols::{IndexKey, Sym, SymbolTable};
use crate::values::ValueTable;

use prov_engine::{XferEvent, XformEvent};

/// All trace state of one run: row heaps plus the four secondary indexes,
/// keyed by shard-local row *positions* (rows additionally carry their
/// global ids for the public records).
#[derive(Debug, Default, Clone)]
pub(crate) struct RunShard {
    pub(crate) xforms: Vec<XformRow>,
    pub(crate) xfers: Vec<XferRow>,
    /// The secondary indexes, in [`IndexId::ALL`] order: xform rows by
    /// output and by input binding, xfer rows by destination and by source.
    indexes: [CompositeIndex; 4],
}

impl RunShard {
    /// The secondary index `id`.
    pub(crate) fn index(&self, id: IndexId) -> &CompositeIndex {
        &self.indexes[id.pos()]
    }

    /// Appends an xform row (global id `id`), interning names and values
    /// through the shared tables.
    pub(crate) fn insert_xform(
        &mut self,
        id: u64,
        run: RunId,
        event: &XformEvent,
        symbols: &mut SymbolTable,
        values: &mut ValueTable,
    ) {
        let pos = self.xforms.len() as u64;
        let processor = symbols.intern(&event.processor.0);
        let mut ports = Vec::with_capacity(event.inputs.len() + event.outputs.len());
        for (direction, index_id, bindings) in [
            (PortDirection::In, IndexId::XformIn, &event.inputs),
            (PortDirection::Out, IndexId::XformOut, &event.outputs),
        ] {
            for b in bindings {
                let value = values.intern(&b.value);
                let port = symbols.intern(&b.port);
                ports.push(XformPortRow { direction, port, index: b.index.clone(), value });
                let key = IndexKey::from(&b.index);
                self.indexes[index_id.pos()].insert(processor, port, key, pos);
            }
        }
        self.xforms.push(XformRow { id, run, processor, invocation: event.invocation, ports });
    }

    /// Appends an xfer row (global id `id`).
    pub(crate) fn insert_xfer(
        &mut self,
        id: u64,
        run: RunId,
        event: &XferEvent,
        symbols: &mut SymbolTable,
        values: &mut ValueTable,
    ) {
        let pos = self.xfers.len() as u64;
        let value = values.intern(&event.value);
        let src_processor = symbols.intern(&event.src.processor.0);
        let src_port = symbols.intern(&event.src.port);
        let dst_processor = symbols.intern(&event.dst.processor.0);
        let dst_port = symbols.intern(&event.dst.port);
        let dst_key = IndexKey::from(&event.dst_index);
        self.indexes[IndexId::XferDst.pos()].insert(dst_processor, dst_port, dst_key, pos);
        let src_key = IndexKey::from(&event.src_index);
        self.indexes[IndexId::XferSrc.pos()].insert(src_processor, src_port, src_key, pos);
        self.xfers.push(XferRow {
            id,
            run,
            src_processor,
            src_port,
            src_index: event.src_index.clone(),
            dst_processor,
            dst_port,
            dst_index: event.dst_index.clone(),
            value,
        });
    }
}

/// An interned provenance-graph node `P:X[p]` of one pinned view: what a
/// walk over the trace keeps on its stack and in its visited set. Names
/// stay symbols until a walk asks for them ([`ReadView::binding`],
/// [`ReadView::processor_name`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    processor: Sym,
    port: Sym,
    index: IndexKey,
}

impl Hash for Node {
    /// One `u64` for the two symbols and one `u128` for a packed key (its
    /// bits determine its length), so a visited-set lookup hashes 24 bytes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.processor.0) << 32 | u64::from(self.port.0));
        match &self.index {
            IndexKey::Packed { bits, .. } => state.write_u128(*bits),
            spilled => spilled.hash(state),
        }
    }
}

/// A stored binding one walk step reached: its node and its element.
fn hop(processor: Sym, port: Sym, index: &Index, value: ValueId) -> (Node, ValueId) {
    (Node { processor, port, index: IndexKey::from(index) }, value)
}

/// Processor names interned against one view, so a walk tests a
/// [`Node`]'s processor without resolving its name. Names the view never
/// interned match no node taken from a row.
#[derive(Debug, Clone)]
pub struct ProcessorSet(Vec<bool>);

impl ProcessorSet {
    /// Whether `node`'s processor is in the set.
    pub fn contains(&self, node: &Node) -> bool {
        self.0.get(node.processor.0 as usize).copied().unwrap_or(false)
    }
}

/// The shared empty shard: views of unknown (or dropped, or not yet
/// recorded) runs probe it so that their stats accounting is identical to a
/// probe of a populated shard that happens to find nothing.
fn empty_shard() -> &'static Arc<RunShard> {
    static EMPTY: OnceLock<Arc<RunShard>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(RunShard::default()))
}

/// An immutable snapshot of one run's trace, pinned with one brief read
/// lock ([`crate::TraceStore::pin`]) and queried with **zero** further lock
/// acquisitions: the view owns `Arc`s of the run's shard and the shared
/// symbol/value tables, and recording after the pin copy-on-writes new
/// shard state rather than mutating what the view holds.
///
/// It is the only way into a run's rows: a reader that reads one run
/// several times pins it once and asks the view.
#[derive(Debug, Clone)]
pub struct ReadView {
    run: RunId,
    shard: Arc<RunShard>,
    symbols: Arc<SymbolTable>,
    values: Arc<ValueTable>,
    /// Shares atomics with the store's counters (see [`QueryStats`]).
    stats: QueryStats,
}

impl ReadView {
    pub(crate) fn new(
        run: RunId,
        shard: Option<Arc<RunShard>>,
        symbols: Arc<SymbolTable>,
        values: Arc<ValueTable>,
        stats: QueryStats,
    ) -> Self {
        ReadView {
            run,
            shard: shard.unwrap_or_else(|| Arc::clone(empty_shard())),
            symbols,
            values,
            stats,
        }
    }

    /// The run this view is pinned to.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// The interned node of an API-boundary `(processor, port, index)`
    /// address. Unknown names map to `Sym::MISSING`, which probes the
    /// indexes and finds nothing — same answers, same stats, no allocation.
    pub fn node(&self, processor: &ProcessorName, port: &str, index: &Index) -> Node {
        Node {
            processor: self.symbols.lookup(processor.as_str()),
            port: self.symbols.lookup(port),
            index: IndexKey::from(index),
        }
    }

    /// The processors among `names` that this view has interned.
    pub fn processor_set<'a>(
        &self,
        names: impl IntoIterator<Item = &'a ProcessorName>,
    ) -> ProcessorSet {
        let mut set = vec![false; self.symbols.len()];
        for name in names {
            if let Some(slot) = set.get_mut(self.symbols.lookup(name.as_str()).0 as usize) {
                *slot = true;
            }
        }
        ProcessorSet(set)
    }

    /// Fills `out` with the positions of the rows index `id` files under a
    /// key overlapping `node`, sorted and deduplicated: xform rows for
    /// [`IndexId::XformOut`] / [`IndexId::XformIn`], xfer rows for
    /// [`IndexId::XferDst`] / [`IndexId::XferSrc`]. Costs `|index| + 2`
    /// index probes, counted into `probe`. `out` is the caller's, so a walk
    /// that keeps its buffers probes without allocating.
    pub fn rows(&self, id: IndexId, node: &Node, probe: &mut ProbeStats, out: &mut Vec<u64>) {
        let Node { processor, port, index } = node;
        out.clear();
        self.shard.index(id).get_overlapping(*processor, *port, index, probe, out);
        if out.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// The `direction` side bindings of the xform row at `pos`, in port
    /// order, as nodes and elements.
    pub fn xform_ports(
        &self,
        pos: u64,
        direction: PortDirection,
    ) -> impl Iterator<Item = (Node, ValueId)> + '_ {
        let row = &self.shard.xforms[pos as usize];
        let ports = row.ports.iter().filter(move |p| p.direction == direction);
        ports.map(|p| hop(row.processor, p.port, &p.index, p.value))
    }

    /// The source binding of the xfer row at `pos`: node and element.
    pub fn xfer_src(&self, pos: u64) -> (Node, ValueId) {
        let r = &self.shard.xfers[pos as usize];
        hop(r.src_processor, r.src_port, &r.src_index, r.value)
    }

    /// The destination binding of the xfer row at `pos`: node and element.
    pub fn xfer_dst(&self, pos: u64) -> (Node, ValueId) {
        let r = &self.shard.xfers[pos as usize];
        hop(r.dst_processor, r.dst_port, &r.dst_index, r.value)
    }

    /// The name of `node`'s processor.
    pub fn processor_name(&self, node: &Node) -> ProcessorName {
        ProcessorName(self.symbols.resolve(node.processor))
    }

    /// Resolves the element `value` at `node` into a user-facing
    /// [`Binding`].
    pub fn binding(&self, node: &Node, value: ValueId) -> crate::Result<Binding> {
        let value = self.value(value).ok_or(StoreError::DanglingValue(value))?;
        Ok(Binding {
            port: PortRef {
                processor: self.processor_name(node),
                port: self.symbols.resolve(node.port),
            },
            index: node.index.to_index(),
            value,
        })
    }

    /// The distinct `(index, value)` bindings that index `id` files on
    /// `node`'s port at keys overlapping `node`'s index, in row order,
    /// resolved. With [`IndexId::XformIn`] this is `Q(P, X_i, p_i)` of
    /// Algorithm 2; with [`IndexId::XferSrc`] it reads a workflow-scope
    /// input port, which exists in the trace only as xfer sources. A
    /// binding several rows share (a whole value every invocation
    /// consumes, an element fanned out along several arcs) is reported
    /// once. Costs what [`ReadView::rows`] costs, counted into `probe`.
    pub fn bindings_at(
        &self,
        id: IndexId,
        node: &Node,
        probe: &mut ProbeStats,
    ) -> crate::Result<Vec<Binding>> {
        let mut rows = Vec::new();
        self.rows(id, node, probe, &mut rows);
        let want = node.index.to_index();
        let direction =
            if id == IndexId::XformOut { PortDirection::Out } else { PortDirection::In };
        let mut found: Vec<(ValueId, &Index)> = Vec::new();
        for pos in rows.into_iter().map(|pos| pos as usize) {
            // The row's bindings on the side `id` indexes.
            let (ports, xfer): (&[XformPortRow], _) = match id {
                IndexId::XformOut | IndexId::XformIn => (&self.shard.xforms[pos].ports, None),
                IndexId::XferDst => {
                    let r = &self.shard.xfers[pos];
                    (&[], Some((r.value, &r.dst_index)))
                }
                IndexId::XferSrc => {
                    let r = &self.shard.xfers[pos];
                    (&[], Some((r.value, &r.src_index)))
                }
            };
            let on_port = ports.iter().filter(|p| p.direction == direction && p.port == node.port);
            for b in on_port.map(|p| (p.value, &p.index)).chain(xfer) {
                if (b.1.is_prefix_of(&want) || want.is_prefix_of(b.1)) && !found.contains(&b) {
                    found.push(b);
                }
            }
        }
        let port =
            PortRef { processor: self.processor_name(node), port: self.symbols.resolve(node.port) };
        found
            .into_iter()
            .map(|(value, index)| {
                let value = self.value(value).ok_or(StoreError::DanglingValue(value))?;
                Ok(Binding { port: port.clone(), index: index.clone(), value })
            })
            .collect()
    }

    /// Cardinality statistics of index `id`'s `(processor, port)` slice in
    /// this run: what the static cost model sizes its predictions with.
    /// Zeros for names the store has never seen.
    pub fn port_cardinality(
        &self,
        id: IndexId,
        processor: &ProcessorName,
        port: &str,
    ) -> PortCardinality {
        let (p, x) = (self.symbols.lookup(processor.as_str()), self.symbols.lookup(port));
        self.shard.index(id).port_stats(p, x)
    }

    /// Materialises a public record from an interned xform row.
    fn xform_record(&self, row: &XformRow) -> XformRecord {
        XformRecord {
            id: row.id,
            run: row.run,
            processor: ProcessorName(self.symbols.resolve(row.processor)),
            invocation: row.invocation,
            ports: row
                .ports
                .iter()
                .map(|p| XformPortRecord {
                    direction: p.direction,
                    port: self.symbols.resolve(p.port),
                    index: p.index.clone(),
                    value: p.value,
                })
                .collect(),
        }
    }

    /// Materialises a public record from an interned xfer row.
    fn xfer_record(&self, row: &XferRow) -> XferRecord {
        XferRecord {
            id: row.id,
            run: row.run,
            src_processor: ProcessorName(self.symbols.resolve(row.src_processor)),
            src_port: self.symbols.resolve(row.src_port),
            src_index: row.src_index.clone(),
            dst_processor: ProcessorName(self.symbols.resolve(row.dst_processor)),
            dst_port: self.symbols.resolve(row.dst_port),
            dst_index: row.dst_index.clone(),
            value: row.value,
        }
    }

    /// A drop-flushed accumulator bound to this view's shared counters,
    /// for callers composing several probes into one flush.
    pub fn probe_guard(&self) -> ProbeGuard<'_> {
        self.stats.probe_guard()
    }

    /// The xform events whose **output** binding on `processor:port`
    /// overlaps `index` (stored `q` is a prefix of `index`, or extends
    /// it): the naïve algorithm's "finding a matching xform event in the
    /// provenance trace", as whole records.
    pub fn xforms_producing(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Vec<XformRecord> {
        let mut rows = Vec::new();
        let node = self.node(processor, port, index);
        self.rows(IndexId::XformOut, &node, &mut self.probe_guard(), &mut rows);
        rows.into_iter().map(|pos| self.xform_record(&self.shard.xforms[pos as usize])).collect()
    }

    /// The xfer events whose **destination** binding on `processor:port`
    /// overlaps `index` — the arc-traversal step of the naïve algorithm.
    pub fn xfers_into(
        &self,
        processor: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Vec<XferRecord> {
        let mut rows = Vec::new();
        let node = self.node(processor, port, index);
        self.rows(IndexId::XferDst, &node, &mut self.probe_guard(), &mut rows);
        rows.into_iter().map(|pos| self.xfer_record(&self.shard.xfers[pos as usize])).collect()
    }

    /// All xform rows of the run, in insertion order. The shard stores
    /// exactly this run's rows contiguously, so only those rows are
    /// touched; they are charged as both records read and rows scanned.
    pub fn xforms_of_run(&self) -> Vec<XformRecord> {
        let mut probe = self.probe_guard();
        let rows: Vec<XformRecord> =
            self.shard.xforms.iter().map(|row| self.xform_record(row)).collect();
        probe.count_rows_scanned(rows.len());
        probe.count_records(rows.len());
        rows
    }

    /// All xfer rows of the run, in insertion order (see
    /// [`ReadView::xforms_of_run`]).
    pub fn xfers_of_run(&self) -> Vec<XferRecord> {
        let mut probe = self.probe_guard();
        let rows: Vec<XferRecord> =
            self.shard.xfers.iter().map(|row| self.xfer_record(row)).collect();
        probe.count_rows_scanned(rows.len());
        probe.count_records(rows.len());
        rows
    }

    /// All bindings (across every port role) of the run that carry exactly
    /// `value` — the access path for *value-predicated* queries, which the
    /// paper notes fall outside INDEXPROJ ("a query that explicitly
    /// predicates on the presence of a specific value … can still be
    /// answered using a standard graph traversal"). A scan of the xform
    /// rows, then the xfer rows, each in insertion order — the order a
    /// reopen rebuilds from a snapshot, so the answer is the same before
    /// and after one. Each binding is reported once. Charges every row
    /// walked as scanned and every matching row as read; a value the store
    /// never interned matches nothing and walks no row.
    pub fn bindings_with_value(&self, value: &Value) -> Vec<Binding> {
        let Some(&vid) = self.values.lookup(value) else { return Vec::new() };
        let mut probe = self.probe_guard();
        probe.count_rows_scanned(self.shard.xforms.len() + self.shard.xfers.len());
        let mut found: Vec<(Sym, Sym, &Index)> = Vec::new();
        let mut push = |b| {
            if !found.contains(&b) {
                found.push(b);
            }
        };
        for row in self.shard.xforms.iter().filter(|row| row.ports.iter().any(|p| p.value == vid)) {
            probe.count_records(1);
            for p in row.ports.iter().filter(|p| p.value == vid) {
                push((row.processor, p.port, &p.index));
            }
        }
        for row in self.shard.xfers.iter().filter(|row| row.value == vid) {
            probe.count_records(1);
            push((row.src_processor, row.src_port, &row.src_index));
            push((row.dst_processor, row.dst_port, &row.dst_index));
        }
        found
            .into_iter()
            .map(|(processor, port, index)| Binding {
                port: PortRef {
                    processor: ProcessorName(self.symbols.resolve(processor)),
                    port: self.symbols.resolve(port),
                },
                index: index.clone(),
                value: value.clone(),
            })
            .collect()
    }

    /// Resolves a value id against the pinned value table.
    pub fn value(&self, id: ValueId) -> Option<Value> {
        self.values.get(id).cloned()
    }

    /// Total number of trace records visible in this view (xform rows +
    /// xfer rows of the pinned run).
    pub fn trace_record_count(&self) -> u64 {
        (self.shard.xforms.len() + self.shard.xfers.len()) as u64
    }

    /// The access counters this view reports into. Clones of
    /// [`QueryStats`] share their atomic cells, so these are the *store's*
    /// counters: probes through any view and through the store itself all
    /// land in one set of totals.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use prov_engine::{PortBinding, TraceSink, XferEvent};

    use super::*;
    use crate::TraceStore;

    /// A 3×3 cross product: invocation `(i, j)` of `X` consumes `a[i]` and
    /// `b[j]` and emits `Y[i,j]`, so `X:a` and `X:b` file each key three
    /// times, and `X:b`'s rows under one key are not contiguous.
    fn cross_product() -> ReadView {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        for (i, j) in (0..3).flat_map(|i| (0..3).map(move |j| (i, j))) {
            let bind = |port: &str, index: &[u32]| {
                PortBinding::new(port, Index::from_slice(index), Value::str(port))
            };
            let event = XformEvent {
                processor: "X".into(),
                invocation: 3 * i + j,
                inputs: vec![bind("a", &[i]), bind("b", &[j])],
                outputs: vec![bind("Y", &[i, j])],
            };
            store.record_xform(run, event);
        }
        store.pin(run)
    }

    /// An arc carrying `value` from `src[0]` to `dst[0]`.
    fn xfer(src: (&str, &str), dst: (&str, &str), value: &str) -> XferEvent {
        XferEvent {
            src: PortRef::new(src.0, src.1),
            src_index: Index::single(0),
            dst: PortRef::new(dst.0, dst.1),
            dst_index: Index::single(0),
            value: Value::str(value),
        }
    }

    /// Invocation 0 of `processor`, consuming `x[0]` and emitting `y[0]`.
    fn xform(processor: &str, input: &str, output: &str) -> XformEvent {
        XformEvent {
            processor: processor.into(),
            invocation: 0,
            inputs: vec![PortBinding::new("x", Index::single(0), Value::str(input))],
            outputs: vec![PortBinding::new("y", Index::single(0), Value::str(output))],
        }
    }

    fn probe(
        view: &ReadView,
        id: IndexId,
        port: &str,
        index: &[u32],
        out: &mut Vec<u64>,
    ) -> ProbeStats {
        let node = view.node(&"X".into(), port, &Index::from_slice(index));
        let mut stats = ProbeStats::new();
        view.rows(id, &node, &mut stats, out);
        stats
    }

    #[test]
    fn rows_are_sorted_and_deduplicated_positions() {
        let view = cross_product();
        let mut out = Vec::new();
        probe(&view, IndexId::XformIn, "b", &[1], &mut out);
        assert_eq!(out, [1, 4, 7]);
        // The whole port: every key's rows, merged into position order.
        let stats = probe(&view, IndexId::XformIn, "b", &[], &mut out);
        assert_eq!(out, (0..9).collect::<Vec<_>>());
        assert_eq!((stats.index_lookups, stats.records_read), (2, 9));
        // A finer query index reaches its ancestor's rows.
        let stats = probe(&view, IndexId::XformIn, "a", &[2, 0], &mut out);
        assert_eq!(out, [6, 7, 8]);
        assert_eq!((stats.index_lookups, stats.records_read), (4, 3));
        probe(&view, IndexId::XformOut, "Y", &[2], &mut out);
        assert_eq!(out, [6, 7, 8]);
    }

    #[test]
    fn a_reused_buffer_probes_like_a_fresh_one() {
        let view = cross_product();
        let mut reused = vec![99, 98];
        for (id, port, index) in [
            (IndexId::XformIn, "a", &[][..]),
            (IndexId::XformIn, "b", &[1]),
            (IndexId::XformIn, "b", &[]),
            (IndexId::XformIn, "a", &[0, 0]),
            (IndexId::XformOut, "Y", &[2]),
            (IndexId::XformOut, "Y", &[1, 2]),
            (IndexId::XformOut, "Y", &[]),
            (IndexId::XferDst, "a", &[0]),
            (IndexId::XformIn, "c", &[0]),
        ] {
            let mut fresh = Vec::new();
            let want = probe(&view, id, port, index, &mut fresh);
            let got = probe(&view, id, port, index, &mut reused);
            assert_eq!(reused, fresh, "{id:?} X:{port}{index:?}");
            assert_eq!(got, want, "{id:?} X:{port}{index:?}");
            assert!(fresh.windows(2).all(|w| w[0] < w[1]), "{fresh:?}");
        }
    }

    #[test]
    fn bindings_with_value_lists_xform_hits_before_xfer_hits() {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        // "v" rides an xfer, then an xform input (the same binding as the
        // xfer's destination), then an xform output: rows interleaved.
        store.record_xfer(run, xfer(("A", "y"), ("B", "x"), "v"));
        store.record_xform(run, xform("B", "v", "w"));
        store.record_xfer(run, xfer(("B", "y"), ("C", "x"), "w"));
        store.record_xform(run, xform("C", "w", "v"));

        let view = store.pin(run);
        let before = view.stats().snapshot();
        let hits: Vec<String> = view
            .bindings_with_value(&Value::str("v"))
            .iter()
            .map(|b| format!("{}{}", b.port, b.index))
            .collect();
        assert_eq!(hits, ["B:x[0]", "C:y[0]", "A:y[0]"]);
        let cost = view.stats().snapshot().since(before);
        assert_eq!((cost.index_lookups, cost.records_read, cost.rows_scanned), (0, 3, 4));
    }

    #[test]
    fn an_empty_result_leaves_the_buffer_empty() {
        let view = cross_product();
        let mut out = vec![1, 2, 3];
        let stats = probe(&view, IndexId::XformIn, "c", &[0, 1], &mut out);
        assert!(out.is_empty());
        assert_eq!((stats.index_lookups, stats.records_read), (4, 0));
        out.push(7);
        probe(&view, IndexId::XferSrc, "Y", &[], &mut out);
        assert!(out.is_empty());
    }

    /// The bindings `id` files at `processor:port[index]`, as
    /// `processor:port[index]="value"`, and what finding them cost.
    fn bindings_at(
        view: &ReadView,
        id: IndexId,
        (processor, port, index): (&str, &str, &[u32]),
    ) -> (Vec<String>, ProbeStats) {
        let node = view.node(&processor.into(), port, &Index::from_slice(index));
        let mut stats = ProbeStats::new();
        let found = view.bindings_at(id, &node, &mut stats).unwrap();
        (found.iter().map(|b| format!("{}{}={}", b.port, b.index, b.value)).collect(), stats)
    }

    #[test]
    fn bindings_at_xform_in_is_the_q_lookup() {
        let view = cross_product();
        // The exact index: one binding, resolved to its port and value, for
        // what the row probe costs.
        let (found, stats) = bindings_at(&view, IndexId::XformIn, ("X", "a", &[1]));
        assert_eq!(found, [r#"X:a[1]="a""#]);
        assert_eq!(stats, probe(&view, IndexId::XformIn, "a", &[1], &mut Vec::new()));
        // A coarse index widens to every finer key (nine rows, three
        // bindings); a finer one reaches its ancestor.
        let (found, stats) = bindings_at(&view, IndexId::XformIn, ("X", "b", &[]));
        assert_eq!(found, [r#"X:b[0]="b""#, r#"X:b[1]="b""#, r#"X:b[2]="b""#]);
        assert_eq!(stats.records_read, 9);
        let (found, _) = bindings_at(&view, IndexId::XformIn, ("X", "a", &[2, 0]));
        assert_eq!(found, [r#"X:a[2]="a""#]);
        // The output side of the same rows; another port finds nothing.
        let (found, _) = bindings_at(&view, IndexId::XformOut, ("X", "Y", &[2]));
        assert_eq!(found, [r#"X:Y[2,0]="Y""#, r#"X:Y[2,1]="Y""#, r#"X:Y[2,2]="Y""#]);
        assert!(bindings_at(&view, IndexId::XformIn, ("X", "Y", &[])).0.is_empty());
    }

    #[test]
    fn bindings_at_xform_in_dedups_shared_whole_values() {
        // Two invocations consuming the same whole-value port produce ONE
        // binding (the paper's X2[]-style port).
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        for invocation in 0..2 {
            let whole = PortBinding::new("x", Index::empty(), Value::str("in"));
            let event = XformEvent { inputs: vec![whole], ..xform("P", "in", "out") };
            store.record_xform(run, XformEvent { invocation, ..event });
        }
        let (found, _) = bindings_at(&store.pin(run), IndexId::XformIn, ("P", "x", &[]));
        assert_eq!(found, [r#"P:x[]="in""#]);
    }

    #[test]
    fn bindings_at_xfer_src_reports_a_fanned_out_element_once() {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        // `A:y[0]` fans out along two arcs, `A:y[1]` along one.
        store.record_xfer(run, xfer(("A", "y"), ("B", "x"), "u"));
        store.record_xfer(run, xfer(("A", "y"), ("C", "x"), "u"));
        let (at1, w) = (Index::single(1), xfer(("A", "y"), ("B", "x"), "w"));
        store.record_xfer(run, XferEvent { src_index: at1.clone(), dst_index: at1, ..w });
        let view = store.pin(run);
        let (found, stats) = bindings_at(&view, IndexId::XferSrc, ("A", "y", &[]));
        assert_eq!(found, [r#"A:y[0]="u""#, r#"A:y[1]="w""#]);
        assert_eq!(stats.records_read, 3);
        let (found, _) = bindings_at(&view, IndexId::XferSrc, ("A", "y", &[1]));
        assert_eq!(found, [r#"A:y[1]="w""#]);
        // The destination side of the same rows; a destination is no source.
        let (found, _) = bindings_at(&view, IndexId::XferDst, ("B", "x", &[]));
        assert_eq!(found, [r#"B:x[0]="u""#, r#"B:x[1]="w""#]);
        assert!(bindings_at(&view, IndexId::XferSrc, ("B", "x", &[])).0.is_empty());
    }
}
