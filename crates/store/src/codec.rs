//! The binary record codec: the payload of every WAL and snapshot frame.
//!
//! A payload is one [`LogRecord`] in four parts:
//!
//! ```text
//! ┌──────┬────────────────────────┬───────────────────┬────────────────────┐
//! │ 0x01 │ names: n, (len, utf8)* │ values: n, value* │ tag, record fields │
//! └──────┴────────────────────────┴───────────────────┴────────────────────┘
//! ```
//!
//! 1. The version byte `0x01`, which can never be `{`.
//! 2. The frame's distinct processor, port and workflow names, each once,
//!    as length-prefixed UTF-8.
//! 3. The frame's distinct [`Value`]s, each once: a tag per [`Atom`]
//!    variant (or per list), then its content.
//! 4. The record: a tag, then varints for the run, the invocation, each
//!    [`Index`] (length, then components), and positions into the two
//!    tables for names and values.
//!
//! Integers are LEB128 varints (`Int` atoms zigzag first, floats are their
//! 8 little-endian bit-pattern bytes). The tables are local to the frame,
//! so every frame decodes alone: torn tails, corrupt frames, snapshot
//! fallback and shipped replica frames behave exactly as with any other
//! self-contained payload.
//!
//! A payload whose first byte is `{` was written before this codec existed,
//! as the serde JSON of the record; the decoder still reads it through the
//! serde derive, so old databases (and old prefixes with binary frames
//! appended) keep opening. Nothing writes JSON.
//!
//! There is one parser, [`Stage::stage`]: it decodes a payload into
//! buffers kept from frame to frame — names as byte ranges of the payload,
//! each table value once, events as table positions and packed
//! [`IndexKey`]s. Replay applies a staged frame straight into a run's
//! shard; [`Stage::decode`] materialises it into an owned [`LogRecord`]
//! for everything else (`WalReader`, `WalCursor::next_record`, tests).
//!
//! The encode side mirrors [`Stage`]: the store writes every `Xform`,
//! `Xfer` and `Batch` frame with one [`RowEncoder`], straight from the
//! rows it has just inserted (or, for a snapshot, holds), in buffers kept
//! from frame to frame — names by [`Sym`], values by [`ValueId`], index
//! components off the [`IndexKey`]s. The by-reference [`Encoder`] writes
//! the same bytes from borrowed events; it stays behind
//! `WalWriter::append_batch` and as the oracle the encoding property test
//! compares against, and writes the records without events.
//!
//! Decoding is total: every length and count is checked against the bytes
//! left before anything is allocated, table positions are bounds-checked,
//! list nesting is capped at [`MAX_DEPTH`], and trailing bytes are an
//! error. A frame stages whole or not at all, so nothing of a payload that
//! does not decode reaches a store.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use prov_engine::{PortBinding, TraceEvent, XferEvent, XformEvent};
use prov_model::{Atom, ErrorToken, Index, PortRef, ProcessorName, RunId, Value, ValueId, F64};

use crate::rows::{PortDirection, XferRow, XformPortRow, XformRow};
use crate::shard::RunShard;
use crate::symbols::{IndexKey, Sym, SymbolTable, GROUPS};
use crate::values::ValueTable;
use crate::wal::{LogRecord, WalError};

/// First byte of every payload this codec writes.
const VERSION: u8 = 0x01;

/// Deepest list nesting a value may have (the vendored `serde_json`
/// recursion limit): the encoder refuses deeper values, so every frame it
/// writes decodes.
pub(crate) const MAX_DEPTH: usize = 128;

// Record tags.
const BEGIN_RUN: u8 = 0;
const XFORM: u8 = 1;
const XFER: u8 = 2;
const BATCH: u8 = 3;
const FINISH_RUN: u8 = 4;
const DROP_RUN: u8 = 5;
const WORKFLOW: u8 = 6;
const SNAPSHOT: u8 = 7;

// Event tags inside a batch.
const EVENT_XFORM: u8 = 0;
const EVENT_XFER: u8 = 1;

// Value tags.
const LIST: u8 = 0;
const STR: u8 = 1;
const INT: u8 = 2;
const FLOAT: u8 = 3;
const BOOL: u8 = 4;
const BYTES: u8 = 5;
const ERROR: u8 = 6;

/// Fewest bytes a table value can take (a tag and one more byte).
const MIN_VALUE: usize = 2;
/// Fewest bytes a batch event can take (an xform with no bindings).
const MIN_EVENT: usize = 5;
/// Fewest bytes a port binding can take (port, empty index, value).
const MIN_BINDING: usize = 3;

/// A value nested deeper than [`MAX_DEPTH`]: the one record the encoder
/// refuses, since its frame could never be read back.
#[derive(Debug)]
pub(crate) struct TooDeep;

impl std::fmt::Display for TooDeep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "value nests lists deeper than {MAX_DEPTH}")
    }
}

impl From<TooDeep> for WalError {
    fn from(e: TooDeep) -> Self {
        WalError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))
    }
}

/// Why a payload did not decode.
#[derive(Debug)]
pub(crate) struct DecodeError(String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn bad<T>(why: &str) -> Result<T, DecodeError> {
    Err(DecodeError(why.to_string()))
}

// ------------------------------------------------------------------ encode

/// Encodes one record.
pub(crate) fn encode(record: &LogRecord) -> Result<Vec<u8>, TooDeep> {
    let mut enc = Encoder::default();
    match record {
        LogRecord::BeginRun { run, workflow } => {
            enc.body.push(BEGIN_RUN);
            enc.uint(run.0);
            enc.name(workflow.as_str());
        }
        LogRecord::Xform { run, event } => {
            enc.body.push(XFORM);
            enc.uint(run.0);
            enc.xform(event);
        }
        LogRecord::Xfer { run, event } => {
            enc.body.push(XFER);
            enc.uint(run.0);
            enc.xfer(event);
        }
        LogRecord::Batch { run, events } => return encode_batch(*run, events),
        LogRecord::FinishRun { run } => {
            enc.body.push(FINISH_RUN);
            enc.uint(run.0);
        }
        LogRecord::DropRun { run } => {
            enc.body.push(DROP_RUN);
            enc.uint(run.0);
        }
        LogRecord::Workflow { name, json } => {
            enc.body.push(WORKFLOW);
            enc.name(name.as_str());
            put_bytes(&mut enc.body, json.as_bytes());
        }
        LogRecord::Snapshot { generation } => {
            enc.body.push(SNAPSHOT);
            enc.uint(*generation);
        }
    }
    enc.finish()
}

/// Encodes a [`LogRecord::Batch`] straight from borrowed events.
pub(crate) fn encode_batch(run: RunId, events: &[TraceEvent]) -> Result<Vec<u8>, TooDeep> {
    let mut enc =
        Encoder { body: Vec::with_capacity(16 + events.len() * 16), ..Encoder::default() };
    enc.body.push(BATCH);
    enc.uint(run.0);
    enc.uint(events.len() as u64);
    for event in events {
        match event {
            TraceEvent::Xform(e) => {
                enc.body.push(EVENT_XFORM);
                enc.xform(e);
            }
            TraceEvent::Xfer(e) => {
                enc.body.push(EVENT_XFER);
                enc.xfer(e);
            }
        }
    }
    enc.finish()
}

/// Writes the record body while collecting the frame's tables; `finish`
/// puts the tables in front of it.
#[derive(Default)]
struct Encoder<'a> {
    body: Vec<u8>,
    names: HashMap<&'a str, u32>,
    name_list: Vec<&'a str>,
    values: HashMap<&'a Value, u32>,
    value_list: Vec<&'a Value>,
}

impl<'a> Encoder<'a> {
    fn uint(&mut self, n: u64) {
        put_uint(&mut self.body, n);
    }

    fn name(&mut self, name: &'a str) {
        let next = self.name_list.len() as u32;
        let at = *self.names.entry(name).or_insert(next);
        if at == next {
            self.name_list.push(name);
        }
        self.uint(u64::from(at));
    }

    fn value(&mut self, value: &'a Value) {
        let next = self.value_list.len() as u32;
        let at = *self.values.entry(value).or_insert(next);
        if at == next {
            self.value_list.push(value);
        }
        self.uint(u64::from(at));
    }

    fn index(&mut self, index: &Index) {
        let components = index.as_slice();
        self.uint(components.len() as u64);
        for &c in components {
            self.uint(u64::from(c));
        }
    }

    fn bindings(&mut self, bindings: &'a [PortBinding]) {
        self.uint(bindings.len() as u64);
        for b in bindings {
            self.name(&b.port);
            self.index(&b.index);
            self.value(&b.value);
        }
    }

    fn xform(&mut self, e: &'a XformEvent) {
        self.name(e.processor.as_str());
        self.uint(u64::from(e.invocation));
        self.bindings(&e.inputs);
        self.bindings(&e.outputs);
    }

    fn xfer(&mut self, e: &'a XferEvent) {
        self.name(e.src.processor.as_str());
        self.name(&e.src.port);
        self.index(&e.src_index);
        self.name(e.dst.processor.as_str());
        self.name(&e.dst.port);
        self.index(&e.dst_index);
        self.value(&e.value);
    }

    fn finish(self) -> Result<Vec<u8>, TooDeep> {
        let names: usize = self.name_list.iter().map(|n| n.len() + 1).sum();
        let mut out = Vec::with_capacity(8 + names + 8 * self.value_list.len() + self.body.len());
        out.push(VERSION);
        put_uint(&mut out, self.name_list.len() as u64);
        for name in &self.name_list {
            put_bytes(&mut out, name.as_bytes());
        }
        put_uint(&mut out, self.value_list.len() as u64);
        for value in &self.value_list {
            put_value(&mut out, value, 0)?;
        }
        out.extend_from_slice(&self.body);
        Ok(out)
    }
}

fn put_uint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_uint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Writes `value`, which sits inside `depth` lists.
fn put_value(out: &mut Vec<u8>, value: &Value, depth: usize) -> Result<(), TooDeep> {
    match value {
        Value::List(items) => {
            if depth >= MAX_DEPTH {
                return Err(TooDeep);
            }
            out.push(LIST);
            put_uint(out, items.len() as u64);
            for item in items {
                put_value(out, item, depth + 1)?;
            }
        }
        Value::Atom(Atom::Str(s)) => {
            out.push(STR);
            put_bytes(out, s.as_bytes());
        }
        Value::Atom(Atom::Int(i)) => {
            out.push(INT);
            put_uint(out, ((i << 1) ^ (i >> 63)) as u64);
        }
        Value::Atom(Atom::Float(f)) => {
            out.push(FLOAT);
            out.extend_from_slice(&f.0.to_bits().to_le_bytes());
        }
        Value::Atom(Atom::Bool(b)) => {
            out.push(BOOL);
            out.push(u8::from(*b));
        }
        Value::Atom(Atom::Bytes(b)) => {
            out.push(BYTES);
            put_bytes(out, b);
        }
        Value::Atom(Atom::Error(token)) => {
            out.push(ERROR);
            put_bytes(out, token.message.as_bytes());
            put_bytes(out, token.origin.as_bytes());
            put_uint(out, u64::from(token.attempts));
        }
    }
    Ok(())
}

/// What one event of a frame written from rows is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Xform,
    Xfer,
}

/// The frame position of a symbol the frame does not use.
const UNUSED: u32 = u32::MAX;

/// The encode side of [`Stage`]: writes `Xform`, `Xfer` and `Batch`
/// frames straight from a run shard's interned rows — the bytes
/// [`encode_batch`] writes from the events the rows were interned from.
/// The frame's tables are keyed by [`Sym`] and [`ValueId`], so no name or
/// value is hashed or compared again once interned: a name's position is
/// a slot of a vector indexed by symbol, reset through the frame's name
/// list; a value's is an entry of a small map keyed by id. Index components are read straight
/// from the rows' [`IndexKey`]s. Tables list names and values in first
/// use, as [`Encoder`]'s do. The buffers are kept from frame to frame, so
/// a frame allocates only its payload.
#[derive(Debug, Default)]
pub(crate) struct RowEncoder {
    /// The kinds of the next frame's events, in order: how its xform rows
    /// and its xfer rows interleave.
    pub(crate) kinds: Vec<Kind>,
    /// The record, written before the tables it points into.
    body: Vec<u8>,
    /// The tables, written once the record has been.
    tables: Vec<u8>,
    /// The frame's names, in first use.
    names: Vec<Sym>,
    /// Each symbol's position in `names`, or [`UNUSED`].
    name_at: Vec<u32>,
    /// The frame's values, in first use.
    values: Vec<ValueId>,
    /// Each of `values`' position.
    value_at: HashMap<ValueId, u32>,
}

impl RowEncoder {
    /// The payload of a frame of `run` whose events are the rows of
    /// `shard` from positions `from` (xform row, xfer row) on, one per
    /// entry of [`RowEncoder::kinds`], which it consumes: a `Batch` record
    /// when `batch`, else the `Xform` or `Xfer` record of its one event.
    /// Names and values resolve through `symbols` and `values`.
    pub(crate) fn encode(
        &mut self,
        run: RunId,
        batch: bool,
        shard: &RunShard,
        from: (usize, usize),
        symbols: &SymbolTable,
        values: &ValueTable,
    ) -> Result<Vec<u8>, WalError> {
        let kinds = std::mem::take(&mut self.kinds);
        let tag = match (batch, kinds.first()) {
            (true, _) => BATCH,
            (false, Some(Kind::Xform)) => XFORM,
            (false, _) => XFER,
        };
        self.body.push(tag);
        put_uint(&mut self.body, run.0);
        if batch {
            put_uint(&mut self.body, kinds.len() as u64);
        }
        let (mut xform, mut xfer) = from;
        for &kind in &kinds {
            match kind {
                Kind::Xform => {
                    if batch {
                        self.body.push(EVENT_XFORM);
                    }
                    let row = &shard.xforms[xform];
                    self.xform(row, shard.ports(row));
                    xform += 1;
                }
                Kind::Xfer => {
                    if batch {
                        self.body.push(EVENT_XFER);
                    }
                    self.xfer(&shard.xfers[xfer]);
                    xfer += 1;
                }
            }
        }
        self.kinds = kinds;
        self.kinds.clear();
        let payload = self.write_tables(symbols, values).map(|()| {
            let mut out = Vec::with_capacity(1 + self.tables.len() + self.body.len());
            out.push(VERSION);
            out.extend_from_slice(&self.tables);
            out.extend_from_slice(&self.body);
            out
        });
        for sym in self.names.drain(..) {
            self.name_at[sym.0 as usize] = UNUSED;
        }
        self.values.clear();
        self.value_at.clear();
        self.body.clear();
        self.tables.clear();
        payload
    }

    fn name(&mut self, sym: Sym) {
        let slot = sym.0 as usize;
        if slot >= self.name_at.len() {
            self.name_at.resize(slot + 1, UNUSED);
        }
        let at = &mut self.name_at[slot];
        if *at == UNUSED {
            *at = self.names.len() as u32;
            self.names.push(sym);
        }
        put_uint(&mut self.body, u64::from(*at));
    }

    fn value(&mut self, id: ValueId) {
        let next = self.values.len() as u32;
        let at = *self.value_at.entry(id).or_insert(next);
        if at == next {
            self.values.push(id);
        }
        put_uint(&mut self.body, u64::from(at));
    }

    fn index(&mut self, key: &IndexKey) {
        let mut buf = [0; GROUPS];
        let components = key.components(&mut buf);
        put_uint(&mut self.body, components.len() as u64);
        for &c in components {
            put_uint(&mut self.body, u64::from(c));
        }
    }

    /// An xform row and its bindings, inputs then outputs.
    fn xform(&mut self, row: &XformRow, ports: &[XformPortRow]) {
        self.name(row.processor);
        put_uint(&mut self.body, u64::from(row.invocation));
        let inputs = ports.iter().take_while(|p| p.direction == PortDirection::In).count();
        for side in [&ports[..inputs], &ports[inputs..]] {
            put_uint(&mut self.body, side.len() as u64);
            for p in side {
                self.name(p.port);
                self.index(&p.index);
                self.value(p.value);
            }
        }
    }

    fn xfer(&mut self, row: &XferRow) {
        self.name(row.src_processor);
        self.name(row.src_port);
        self.index(&row.src_index);
        self.name(row.dst_processor);
        self.name(row.dst_port);
        self.index(&row.dst_index);
        self.value(row.value);
    }

    /// Writes the frame's name and value tables.
    fn write_tables(&mut self, symbols: &SymbolTable, values: &ValueTable) -> Result<(), WalError> {
        put_uint(&mut self.tables, self.names.len() as u64);
        for &sym in &self.names {
            put_bytes(&mut self.tables, symbols.name(sym).as_bytes());
        }
        put_uint(&mut self.tables, self.values.len() as u64);
        for &id in &self.values {
            let Some(value) = values.get(id) else {
                let why = format!("dangling value reference {id}");
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, why).into());
            };
            put_value(&mut self.tables, value, 0)?;
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ decode

/// Decodes one payload in a fresh stage ([`Stage::decode`]): tests and
/// replay oracles.
#[cfg(test)]
pub(crate) fn decode(payload: &[u8]) -> Result<LogRecord, DecodeError> {
    Stage::default().decode(payload)
}

/// One payload decoded into table positions: what [`Stage::decode`]
/// materialises into a [`LogRecord`], and what the store applies straight into a run's
/// shard without materialising it. Names stay byte ranges of the payload,
/// each table value is decoded once, and an event is positions into the
/// two tables plus packed [`IndexKey`]s. The buffers are kept from frame
/// to frame, so staging allocates only what table values and spilled keys
/// own. A payload that does not decode leaves a stage that nothing may
/// apply.
#[derive(Debug, Default)]
pub(crate) struct Stage {
    /// The record, less its events.
    pub(crate) head: Head,
    /// A batch's events, or the one event of an `Xform` or `Xfer` record.
    pub(crate) events: Vec<Event>,
    /// Every xform event's bindings, each event's contiguous.
    pub(crate) ports: Vec<Port>,
    /// The frame's name and value tables.
    pub(crate) table: Table,
    /// Components of the index being read, when it is too long for the
    /// stack.
    components: Vec<u32>,
}

/// A staged record without its events; a variant named like a
/// [`LogRecord`] variant stages that record.
#[derive(Debug, Default)]
pub(crate) enum Head {
    /// Nothing staged yet.
    #[default]
    Empty,
    /// `LogRecord::BeginRun`; the workflow is a name position.
    BeginRun {
        run: RunId,
        workflow: u32,
    },
    /// `LogRecord::Xform` or `LogRecord::Xfer` (one event), or
    /// `LogRecord::Batch`.
    Events {
        run: RunId,
        batch: bool,
    },
    FinishRun {
        run: RunId,
    },
    DropRun {
        run: RunId,
    },
    /// `LogRecord::Workflow`: a name position and the JSON's byte range.
    Workflow {
        name: u32,
        json: Range<usize>,
    },
    Snapshot {
        generation: u64,
    },
    /// A JSON-era payload, decoded whole through the serde derive.
    Json(LogRecord),
}

/// A staged event: names and values are table positions.
#[derive(Debug)]
pub(crate) enum Event {
    /// Its bindings are `ports` of [`Stage::ports`].
    Xform { processor: u32, invocation: u32, ports: Range<usize> },
    /// `src` and `dst` are (processor, port) name positions.
    Xfer { src: [u32; 2], src_index: IndexKey, dst: [u32; 2], dst_index: IndexKey, value: u32 },
}

/// A staged xform binding.
#[derive(Debug)]
pub(crate) struct Port {
    pub(crate) direction: PortDirection,
    pub(crate) port: u32,
    pub(crate) index: IndexKey,
    pub(crate) value: u32,
}

/// A frame's name and value tables, and what each entry interned to once
/// an event used it.
#[derive(Debug, Default)]
pub(crate) struct Table {
    /// Byte ranges of the payload, checked UTF-8.
    names: Vec<Range<usize>>,
    values: Vec<Value>,
    syms: Vec<Option<Sym>>,
    ids: Vec<Option<ValueId>>,
}

impl Table {
    /// The name at position `at` of the frame staged from `payload`.
    pub(crate) fn name<'p>(&self, payload: &'p [u8], at: u32) -> &'p str {
        text(payload, &self.names[at as usize])
    }

    /// The symbol of name `at`, interned into `symbols` the first time an
    /// event asks, so symbols number as the event path numbers them.
    pub(crate) fn sym(&mut self, payload: &[u8], at: u32, symbols: &mut SymbolTable) -> Sym {
        if let Some(sym) = self.syms[at as usize] {
            return sym;
        }
        let sym = symbols.intern_str(self.name(payload, at));
        self.syms[at as usize] = Some(sym);
        sym
    }

    /// The id of value `at`, interned into `values` the first time an
    /// event asks: the decoded value moves into the table, or is dropped
    /// if the table holds it already.
    pub(crate) fn value_id(&mut self, at: u32, values: &mut ValueTable) -> ValueId {
        let at = at as usize;
        if let Some(id) = self.ids[at] {
            return id;
        }
        let id = values.intern_owned(std::mem::replace(&mut self.values[at], Value::empty_list()));
        self.ids[at] = Some(id);
        id
    }
}

/// The bytes of `range` of a staged payload, which staging checked are
/// UTF-8.
pub(crate) fn text<'p>(payload: &'p [u8], range: &Range<usize>) -> &'p str {
    std::str::from_utf8(&payload[range.clone()]).unwrap_or_default()
}

impl Stage {
    /// Decodes `payload` into this stage, replacing what it held: binary
    /// after [`VERSION`], serde JSON after `{`.
    pub(crate) fn stage(&mut self, payload: &[u8]) -> Result<(), DecodeError> {
        self.head = Head::Empty;
        self.events.clear();
        self.ports.clear();
        self.table.names.clear();
        self.table.values.clear();
        self.table.syms.clear();
        self.table.ids.clear();
        match payload.split_first() {
            Some((&VERSION, rest)) => Decoder { payload, rest, stage: self }.frame(),
            Some((b'{', _)) => {
                let record =
                    serde_json::from_slice(payload).map_err(|e| DecodeError(e.to_string()))?;
                self.head = Head::Json(record);
                Ok(())
            }
            Some((b, _)) => Err(DecodeError(format!("unknown payload version {b:#04x}"))),
            None => bad("empty payload"),
        }
    }

    /// The generation of the staged record if it is a snapshot marker.
    pub(crate) fn marker(&self) -> Option<u64> {
        match self.head {
            Head::Snapshot { generation } | Head::Json(LogRecord::Snapshot { generation }) => {
                Some(generation)
            }
            _ => None,
        }
    }

    /// Decodes one payload — binary after [`VERSION`], serde JSON after
    /// `{` — by staging it into this stage's buffers and materialising the
    /// record: for a reader that decodes frame after frame.
    pub(crate) fn decode(&mut self, payload: &[u8]) -> Result<LogRecord, DecodeError> {
        self.stage(payload)?;
        self.record(payload)
    }

    /// The staged record, owned.
    fn record(&mut self, payload: &[u8]) -> Result<LogRecord, DecodeError> {
        let names: Vec<Arc<str>> =
            self.table.names.iter().map(|r| Arc::from(text(payload, r))).collect();
        let name = |at: u32| Arc::clone(&names[at as usize]);
        let values = &self.table.values;
        let value = |at: u32| values[at as usize].clone();
        let side = |ports: &[Port], direction| -> Vec<PortBinding> {
            let ports = ports.iter().filter(|p| p.direction == direction);
            let binding = |p: &Port| PortBinding {
                port: name(p.port),
                index: p.index.to_index(),
                value: value(p.value),
            };
            ports.map(binding).collect()
        };
        let event = |e: &Event| match e {
            Event::Xform { processor, invocation, ports } => TraceEvent::Xform(XformEvent {
                processor: ProcessorName(name(*processor)),
                invocation: *invocation,
                inputs: side(&self.ports[ports.clone()], PortDirection::In),
                outputs: side(&self.ports[ports.clone()], PortDirection::Out),
            }),
            Event::Xfer { src, src_index, dst, dst_index, value: at } => {
                TraceEvent::Xfer(XferEvent {
                    src: PortRef { processor: ProcessorName(name(src[0])), port: name(src[1]) },
                    src_index: src_index.to_index(),
                    dst: PortRef { processor: ProcessorName(name(dst[0])), port: name(dst[1]) },
                    dst_index: dst_index.to_index(),
                    value: value(*at),
                })
            }
        };
        Ok(match std::mem::take(&mut self.head) {
            Head::Empty => return bad("nothing staged"),
            Head::BeginRun { run, workflow } => {
                LogRecord::BeginRun { run, workflow: ProcessorName(name(workflow)) }
            }
            Head::Events { run, batch } => {
                let mut events: Vec<TraceEvent> = self.events.iter().map(event).collect();
                match events.pop() {
                    Some(TraceEvent::Xform(event)) if !batch => LogRecord::Xform { run, event },
                    Some(TraceEvent::Xfer(event)) if !batch => LogRecord::Xfer { run, event },
                    last => {
                        events.extend(last);
                        LogRecord::Batch { run, events }
                    }
                }
            }
            Head::FinishRun { run } => LogRecord::FinishRun { run },
            Head::DropRun { run } => LogRecord::DropRun { run },
            Head::Workflow { name: at, json } => LogRecord::Workflow {
                name: ProcessorName(name(at)),
                json: text(payload, &json).into(),
            },
            Head::Snapshot { generation } => LogRecord::Snapshot { generation },
            Head::Json(record) => record,
        })
    }
}

/// Stages one binary payload: the tables, then the record.
struct Decoder<'a, 's> {
    payload: &'a [u8],
    rest: &'a [u8],
    stage: &'s mut Stage,
}

impl<'a> Decoder<'a, '_> {
    /// Reads both tables and the record; nothing may follow it.
    fn frame(mut self) -> Result<(), DecodeError> {
        let n = self.count(1)?;
        self.stage.table.names.reserve(n);
        for _ in 0..n {
            let name = self.str_range()?;
            self.stage.table.names.push(name);
        }
        let n = self.count(MIN_VALUE)?;
        self.stage.table.values.reserve(n);
        for _ in 0..n {
            let value = self.value(0)?;
            self.stage.table.values.push(value);
        }
        let head = match self.byte()? {
            BEGIN_RUN => Head::BeginRun { run: self.run()?, workflow: self.name()? },
            XFORM => {
                let run = self.run()?;
                self.xform()?;
                Head::Events { run, batch: false }
            }
            XFER => {
                let run = self.run()?;
                self.xfer()?;
                Head::Events { run, batch: false }
            }
            BATCH => {
                let run = self.run()?;
                let n = self.count(MIN_EVENT)?;
                self.stage.events.reserve(n);
                for _ in 0..n {
                    match self.byte()? {
                        EVENT_XFORM => self.xform()?,
                        EVENT_XFER => self.xfer()?,
                        _ => return bad("unknown event tag"),
                    }
                }
                Head::Events { run, batch: true }
            }
            FINISH_RUN => Head::FinishRun { run: self.run()? },
            DROP_RUN => Head::DropRun { run: self.run()? },
            WORKFLOW => Head::Workflow { name: self.name()?, json: self.str_range()? },
            SNAPSHOT => Head::Snapshot { generation: self.uint()? },
            _ => return bad("unknown record tag"),
        };
        if !self.rest.is_empty() {
            return bad("trailing bytes after the record");
        }
        let table = &mut self.stage.table;
        table.syms.resize(table.names.len(), None);
        table.ids.resize(table.values.len(), None);
        self.stage.head = head;
        Ok(())
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let Some((&b, rest)) = self.rest.split_first() else {
            return bad("payload ends early");
        };
        self.rest = rest;
        Ok(b)
    }

    fn uint(&mut self) -> Result<u64, DecodeError> {
        let mut n = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            // The tenth byte may carry only the top bit of a u64.
            if shift == 63 && b > 1 {
                return bad("varint overflows u64");
            }
            n |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(n);
            }
        }
        bad("varint overflows u64")
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.uint()?).or_else(|_| bad("integer overflows u32"))
    }

    /// A count of items that take at least `min_bytes` each: more than the
    /// bytes left can hold is an error, before anything is allocated.
    fn count(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.uint()?;
        if n > (self.rest.len() / min_bytes) as u64 {
            return bad("count exceeds the bytes left");
        }
        Ok(n as usize)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if len > self.rest.len() {
            return bad("length exceeds the bytes left");
        }
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(head)
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).or_else(|_| bad("string is not UTF-8"))
    }

    /// A length-prefixed UTF-8 string, as its byte range in the payload.
    fn str_range(&mut self) -> Result<Range<usize>, DecodeError> {
        let len = self.str()?.len();
        let end = self.payload.len() - self.rest.len();
        Ok(end - len..end)
    }

    fn run(&mut self) -> Result<RunId, DecodeError> {
        Ok(RunId(self.uint()?))
    }

    /// A position into the name table.
    fn name(&mut self) -> Result<u32, DecodeError> {
        match u32::try_from(self.uint()?) {
            Ok(at) if (at as usize) < self.stage.table.names.len() => Ok(at),
            _ => bad("name position out of range"),
        }
    }

    /// A position into the value table.
    fn table_value(&mut self) -> Result<u32, DecodeError> {
        match u32::try_from(self.uint()?) {
            Ok(at) if (at as usize) < self.stage.table.values.len() => Ok(at),
            _ => bad("value position out of range"),
        }
    }

    fn index(&mut self) -> Result<IndexKey, DecodeError> {
        let len = self.count(1)?;
        if len <= Index::INLINE {
            let mut buf = [0u32; Index::INLINE];
            for c in &mut buf[..len] {
                *c = self.u32()?;
            }
            Ok(IndexKey::from_components(&buf[..len]))
        } else {
            self.stage.components.clear();
            for _ in 0..len {
                let c = self.u32()?;
                self.stage.components.push(c);
            }
            Ok(IndexKey::from_components(&self.stage.components))
        }
    }

    fn bindings(&mut self, direction: PortDirection) -> Result<(), DecodeError> {
        let n = self.count(MIN_BINDING)?;
        self.stage.ports.reserve(n);
        for _ in 0..n {
            let (port, index, value) = (self.name()?, self.index()?, self.table_value()?);
            self.stage.ports.push(Port { direction, port, index, value });
        }
        Ok(())
    }

    fn xform(&mut self) -> Result<(), DecodeError> {
        let (processor, invocation) = (self.name()?, self.u32()?);
        let from = self.stage.ports.len();
        self.bindings(PortDirection::In)?;
        self.bindings(PortDirection::Out)?;
        let ports = from..self.stage.ports.len();
        self.stage.events.push(Event::Xform { processor, invocation, ports });
        Ok(())
    }

    fn xfer(&mut self) -> Result<(), DecodeError> {
        let src = [self.name()?, self.name()?];
        let src_index = self.index()?;
        let dst = [self.name()?, self.name()?];
        let dst_index = self.index()?;
        let value = self.table_value()?;
        self.stage.events.push(Event::Xfer { src, src_index, dst, dst_index, value });
        Ok(())
    }

    /// Reads a table value that sits inside `depth` lists.
    fn value(&mut self, depth: usize) -> Result<Value, DecodeError> {
        let atom = match self.byte()? {
            LIST => {
                if depth >= MAX_DEPTH {
                    return bad("list nesting exceeds the depth cap");
                }
                let n = self.count(MIN_VALUE)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value(depth + 1)?);
                }
                return Ok(Value::List(items));
            }
            STR => Atom::Str(Arc::from(self.str()?)),
            INT => {
                let z = self.uint()?;
                Atom::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            FLOAT => {
                let bits = self.take(8)?;
                let mut le = [0u8; 8];
                le.copy_from_slice(bits);
                Atom::Float(F64(f64::from_bits(u64::from_le_bytes(le))))
            }
            BOOL => match self.byte()? {
                0 => Atom::Bool(false),
                1 => Atom::Bool(true),
                _ => return bad("bool is neither 0 nor 1"),
            },
            BYTES => {
                let len = self.count(1)?;
                Atom::Bytes(bytes::Bytes::from(self.take(len)?))
            }
            ERROR => {
                let (message, origin) = (self.str()?, self.str()?);
                Atom::Error(Box::new(ErrorToken::new(message, origin, self.u32()?)))
            }
            _ => return bad("unknown value tag"),
        };
        Ok(Value::Atom(atom))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// splitmix64: every generated record is a function of one seed. The
    /// replay property test records its runs from the same shapes.
    pub(crate) struct Gen(pub(crate) u64);

    impl Gen {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        pub(crate) fn name(&mut self) -> Arc<str> {
            const NAMES: [&str; 6] = ["", "P", "LISTGEN_1", "x", "générateur", "入力/ポート"];
            Arc::from(NAMES[self.below(NAMES.len() as u64) as usize])
        }

        /// Short indexes, long ones that spill inline storage, and ones
        /// whose components do not pack.
        pub(crate) fn index(&mut self) -> Index {
            let (len, max) = match self.below(3) {
                0 => (self.below(4), 3),
                1 => (9 + self.below(4), 2),
                _ => (1 + self.below(3), u64::from(u32::MAX)),
            };
            let components: Vec<u32> = (0..len)
                .map(|_| if max > 3 { 0xFFFE + self.below(max - 0xFFFD) } else { self.below(max) })
                .map(|c| c as u32)
                .collect();
            Index::from_slice(&components)
        }

        pub(crate) fn atom(&mut self) -> Atom {
            match self.below(9) {
                0 => Atom::Str(self.name()),
                1 => Atom::Int(self.next() as i64),
                2 => Atom::Int(self.below(5) as i64 - 2),
                3 => Atom::Float(F64(f64::from_bits(self.next()))),
                4 => Atom::Float(F64([f64::NAN, -f64::NAN, -0.0, 0.0][self.below(4) as usize])),
                5 => Atom::Bool(self.below(2) == 1),
                6 => Atom::Bytes(bytes::Bytes::from(
                    (0..self.below(5)).map(|_| self.next() as u8).collect::<Vec<u8>>(),
                )),
                7 => Atom::Error(Box::new(ErrorToken::new(
                    self.name(),
                    self.name(),
                    self.next() as u32,
                ))),
                _ => Atom::Int(7),
            }
        }

        pub(crate) fn value(&mut self, depth: usize) -> Value {
            if depth < 3 && self.below(3) == 0 {
                Value::List((0..self.below(4)).map(|_| self.value(depth + 1)).collect())
            } else {
                Value::Atom(self.atom())
            }
        }

        pub(crate) fn bindings(&mut self) -> Vec<PortBinding> {
            (0..self.below(3))
                .map(|_| PortBinding {
                    port: self.name(),
                    index: self.index(),
                    value: self.value(0),
                })
                .collect()
        }

        pub(crate) fn xform(&mut self) -> XformEvent {
            XformEvent {
                processor: ProcessorName(self.name()),
                invocation: self.next() as u32,
                inputs: self.bindings(),
                outputs: self.bindings(),
            }
        }

        pub(crate) fn xfer(&mut self) -> XferEvent {
            XferEvent {
                src: PortRef { processor: ProcessorName(self.name()), port: self.name() },
                src_index: self.index(),
                dst: PortRef { processor: ProcessorName(self.name()), port: self.name() },
                dst_index: self.index(),
                value: self.value(0),
            }
        }

        pub(crate) fn run(&mut self) -> RunId {
            RunId(if self.below(2) == 0 { self.below(4) } else { self.next() })
        }

        pub(crate) fn record(&mut self) -> LogRecord {
            match self.below(8) {
                0 => LogRecord::BeginRun { run: self.run(), workflow: ProcessorName(self.name()) },
                1 => LogRecord::Xform { run: self.run(), event: self.xform() },
                2 => LogRecord::Xfer { run: self.run(), event: self.xfer() },
                3 => LogRecord::Batch {
                    run: self.run(),
                    events: (0..self.below(6))
                        .map(|_| match self.below(2) {
                            0 => TraceEvent::Xform(self.xform()),
                            _ => TraceEvent::Xfer(self.xfer()),
                        })
                        .collect(),
                },
                4 => LogRecord::FinishRun { run: self.run() },
                5 => LogRecord::DropRun { run: self.run() },
                6 => LogRecord::Workflow {
                    name: ProcessorName(self.name()),
                    json: format!("{{\"w\":\"{}\"}}", self.name()),
                },
                _ => LogRecord::Snapshot { generation: self.next() },
            }
        }
    }

    /// `LogRecord` equality compares floats by bit pattern (`F64`), so
    /// NaN payloads and the sign of zero must survive exactly.
    fn round_trips(record: &LogRecord) {
        let bytes = encode(record).unwrap();
        assert_eq!(bytes[0], VERSION);
        assert_eq!(&decode(&bytes).unwrap(), record);
    }

    fn nested(depth: usize) -> Value {
        (0..depth).fold(Value::int(1), |v, _| Value::List(vec![v]))
    }

    fn xfer_of(value: Value) -> LogRecord {
        LogRecord::Xfer {
            run: RunId(0),
            event: XferEvent {
                src: PortRef::new("A", "y"),
                src_index: Index::empty(),
                dst: PortRef::new("B", "x"),
                dst_index: Index::empty(),
                value,
            },
        }
    }

    const CASES: u32 = if cfg!(miri) { 4 } else { 256 };

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(CASES))]

        #[test]
        fn arbitrary_records_round_trip(seed in proptest::prelude::any::<u64>()) {
            round_trips(&Gen(seed).record());
        }

        #[test]
        fn random_bytes_after_the_version_byte_never_panic(
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let mut payload = vec![VERSION];
            payload.extend_from_slice(&body);
            let _ = decode(&payload);
        }
    }

    #[test]
    fn every_record_variant_and_atom_round_trips() {
        let mut g = Gen(1);
        let (xform, xfer) = (g.xform(), g.xfer());
        let records = [
            LogRecord::BeginRun { run: RunId(u64::MAX), workflow: ProcessorName::from("") },
            LogRecord::Xform { run: RunId(3), event: xform.clone() },
            LogRecord::Xfer { run: RunId(0), event: xfer.clone() },
            LogRecord::Batch {
                run: RunId(9),
                events: vec![TraceEvent::Xform(xform), TraceEvent::Xfer(xfer)],
            },
            LogRecord::Batch { run: RunId(1), events: Vec::new() },
            LogRecord::FinishRun { run: RunId(2) },
            LogRecord::DropRun { run: RunId(5) },
            LogRecord::Workflow { name: ProcessorName::from("wf/ü"), json: "{}".into() },
            LogRecord::Snapshot { generation: u64::MAX },
        ];
        for record in &records {
            round_trips(record);
        }
        let atoms = [
            Atom::Str("".into()),
            Atom::Int(i64::MIN),
            Atom::Int(i64::MAX),
            Atom::Float(F64(f64::NAN)),
            Atom::Float(F64(f64::from_bits(0x7FF0_0000_0000_0001))),
            Atom::Float(F64(-0.0)),
            Atom::Float(F64(f64::NEG_INFINITY)),
            Atom::Bool(true),
            Atom::Bytes(bytes::Bytes::from_static(&[0, 255])),
            Atom::Error(Box::new(ErrorToken::new("boom", "P/Q", 3))),
        ];
        for atom in atoms {
            round_trips(&xfer_of(Value::Atom(atom)));
        }
    }

    #[test]
    fn names_and_values_are_written_once_per_frame() {
        let event = |n: i64| {
            TraceEvent::Xfer(XferEvent {
                src: PortRef::new("A", "y"),
                src_index: Index::single(n as u32),
                dst: PortRef::new("B", "x"),
                dst_index: Index::single(n as u32),
                value: Value::str("shared value"),
            })
        };
        let one = encode_batch(RunId(0), &[event(0)]).unwrap();
        let many = encode_batch(RunId(0), &(0..100).map(event).collect::<Vec<_>>()).unwrap();
        // Each further event costs its tag, four name positions, two
        // one-component indexes and a value position: 10 bytes, with no
        // name or value text.
        assert_eq!(many.len() - one.len(), 99 * 10);
    }

    #[test]
    fn lists_nest_to_the_cap_and_no_deeper() {
        round_trips(&xfer_of(nested(MAX_DEPTH)));
        assert!(encode(&xfer_of(nested(MAX_DEPTH + 1))).is_err());
        // A hand-made payload one list deeper than the cap is refused too.
        let mut payload = encode(&xfer_of(nested(MAX_DEPTH))).unwrap();
        let at = payload.iter().position(|&b| b == LIST).unwrap();
        payload.splice(at..at, [LIST, 1]);
        assert!(decode(&payload).unwrap_err().to_string().contains("depth"));
    }

    #[test]
    fn json_era_payloads_still_decode() {
        // The JSON branch is exactly the serde derive, which is all the
        // JSON era could read back (it wrote a NaN as `null`, for one).
        let mut g = Gen(7);
        for _ in 0..32 {
            let json = serde_json::to_vec(&g.record()).unwrap();
            let serde = serde_json::from_slice::<LogRecord>(&json).ok();
            assert_eq!(decode(&json).ok(), serde);
        }
        let record = LogRecord::FinishRun { run: RunId(4) };
        assert_eq!(decode(&serde_json::to_vec(&record).unwrap()).unwrap(), record);
        assert!(decode(b"{\"FinishRun\":").is_err());
    }

    #[test]
    fn malformed_headers_and_bodies_are_errors() {
        for payload in [
            &[][..],
            &[0x02, 0, 0, FINISH_RUN, 0],
            // A name count far past the bytes left.
            &[VERSION, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
            // An eleven-byte varint.
            &[VERSION, 0, 0, SNAPSHOT, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            // A name position past the table.
            &[VERSION, 0, 0, BEGIN_RUN, 0, 0],
            // Trailing bytes.
            &[VERSION, 0, 0, FINISH_RUN, 0, 0],
            // Not UTF-8.
            &[VERSION, 1, 1, 0xFF, 0, BEGIN_RUN, 0, 0],
        ] {
            assert!(decode(payload).is_err(), "{payload:?} decoded");
        }
        let max =
            [VERSION, 0, 0, SNAPSHOT, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1];
        assert_eq!(decode(&max).unwrap(), LogRecord::Snapshot { generation: u64::MAX });
    }

    /// Every truncation and every single-byte flip of `payload` decodes
    /// to `Ok` or `Err`, never a panic; no truncation decodes at all.
    fn survives_damage(payload: &[u8]) {
        for len in 0..payload.len() {
            assert!(decode(&payload[..len]).is_err(), "a {len}-byte prefix decoded");
        }
        let mut bytes = payload.to_vec();
        for at in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                bytes[at] ^= flip;
                let _ = decode(&bytes);
                bytes[at] ^= flip;
            }
        }
    }

    #[test]
    fn hostile_bytes_are_errors_not_panics() {
        let seed = std::env::var("CRASH_TORTURE_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0xC0DEC);
        eprintln!("codec hostile-bytes seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
        let mut g = Gen(seed);
        let rounds = if cfg!(miri) { 1 } else { 64 };
        for _ in 0..rounds {
            let payload = encode(&g.record()).unwrap();
            survives_damage(&payload);
            let noise: Vec<u8> = (0..g.below(64)).map(|_| g.next() as u8).collect();
            let _ = decode(&[&[VERSION][..], &noise].concat());
        }
    }
}
