//! Symbol interning and packed index keys — the compact key layout of the
//! composite indexes.
//!
//! The hot path of every lineage query is an index probe: a binary search
//! over one port's sorted keys. With string-typed keys each comparison chases two `Arc<str>`
//! pointers and each probe *allocates* (`Arc::from(port)`); with
//! heap-spilling element indices a deep index adds a third indirection.
//! This module replaces all of that with value types:
//!
//! * [`Sym`] — a `u32` ticket for an interned processor or port name. The
//!   store owns one [`SymbolTable`]; names are interned on the write path
//!   and looked up (never created) on the read path, so probing for a name
//!   the store has never seen degenerates to a comparison against
//!   [`Sym::MISSING`] and finds nothing — exactly like the string key it
//!   replaces, with the same stats accounting.
//! * [`IndexKey`] — an element index in 16 bytes: eight 16-bit groups,
//!   big-endian, in a high and a low `u64` word. Component `c` is stored as
//!   `c + 1`, so an index of up to eight components of at most `0xFFFE`
//!   packs, and comparing two packed keys is one 128-bit integer compare
//!   that orders them as their component sequences: all extensions of a
//!   prefix stay contiguous, the property descendant scans rely on. The
//!   empty key stores its high word as 1, so a packed key's high word is
//!   never 0; a spilled key (deeper than eight, or with a component above
//!   `0xFFFE`) is tagged by that free 0 and holds a pointer to its boxed
//!   [`Index`] in the other word, and compares by components. One type,
//!   one width, one order: the key column, the rows and the walks all
//!   hold the same 16 bytes.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::num::NonZeroU64;
use std::sync::Arc;

use prov_model::Index;

/// An interned name (processor or port). Plain `u32` newtype: `Copy`,
/// 4 bytes, one-instruction comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// Sentinel returned by read-path lookups for names the store has never
    /// interned. No real symbol ever takes this value (interning is dense
    /// from 0), so probing an index with it finds nothing — mirroring the
    /// behaviour of probing with an unknown string.
    pub const MISSING: Sym = Sym(u32::MAX);
}

/// Bidirectional name ⇄ symbol table. Owned by the store's `Inner`, so it
/// shares the store's write lock; reads only need `&self`.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    by_name: HashMap<Arc<str>, Sym>,
    names: Vec<Arc<str>>,
}

impl SymbolTable {
    /// Interns `name`, returning its (possibly pre-existing) symbol. The
    /// `Arc` is cloned only on first sight.
    pub fn intern(&mut self, name: &Arc<str>) -> Sym {
        if let Some(&sym) = self.by_name.get(&**name) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(Arc::clone(name));
        self.by_name.insert(Arc::clone(name), sym);
        sym
    }

    /// Interns a borrowed `name`, allocating its `Arc` only on first sight
    /// (the replay path, whose names are bytes of a frame).
    pub fn intern_str(&mut self, name: &str) -> Sym {
        match self.by_name.get(name) {
            Some(&sym) => sym,
            None => self.intern(&Arc::from(name)),
        }
    }

    /// Read-path lookup: the symbol for `name`, or [`Sym::MISSING`] if it
    /// was never interned. Never allocates.
    pub fn lookup(&self, name: &str) -> Sym {
        self.by_name.get(name).copied().unwrap_or(Sym::MISSING)
    }

    /// Resolves a symbol back to its name. Symbols stored in rows are valid
    /// by construction; an out-of-range symbol resolves to the empty name
    /// rather than panicking.
    pub fn resolve(&self, sym: Sym) -> Arc<str> {
        self.names.get(sym.0 as usize).cloned().unwrap_or_else(|| Arc::from(""))
    }

    /// The name of `sym`, borrowed; the empty name for a symbol out of
    /// range, as [`SymbolTable::resolve`].
    pub(crate) fn name(&self, sym: Sym) -> &str {
        self.names.get(sym.0 as usize).map_or("", |name| name)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }
}

/// Number of 16-bit component groups in a packed key.
pub(crate) const GROUPS: usize = 8;
/// Largest component value that still packs (stored biased by +1).
const MAX_PACKED_COMPONENT: u32 = 0xFFFE;
/// The high word of the packed empty key. A non-empty packed key has a
/// non-zero first group, so its high word is at least `1 << 48`: the
/// empty key's own high word, 0, is free to mark a spilled key, and 1
/// still sorts below every other packed key.
const EMPTY_HI: NonZeroU64 = NonZeroU64::MIN;

/// An element index in key form: 16 bytes, no heap, for every index that
/// packs.
///
/// The packed form is one 128-bit integer of eight 16-bit groups, most
/// significant first, split into a high and a low word. Component `c` is
/// stored as the group `c + 1`, and 0 marks "no component", so:
///
/// * comparing two packed keys is one integer comparison, and it orders
///   them as their component sequences (`[] < [0] < [0,0] < [1]`);
/// * the first `k` groups of a key are a bit-mask away, so prefix tests
///   need no decoding;
/// * the empty key is all zeros, but stores its high word as 1 (see
///   [`EMPTY_HI`]): that keeps the high word non-zero, and a zero high word
///   is what tells a spilled key from a packed one without a tag field.
///
/// An index deeper than [`GROUPS`] components, or with a component above
/// [`MAX_PACKED_COMPONENT`], spills to a boxed [`Index`]; it compares,
/// nests and hashes by its components like any other key. The
/// representation is canonical — a sequence is `Packed` iff it fits — so
/// derived equality and hashing are correct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexKey {
    /// Up to eight components of at most [`MAX_PACKED_COMPONENT`], packed.
    Packed {
        /// Groups 0–3 (or [`EMPTY_HI`] for the empty key).
        hi: NonZeroU64,
        /// Groups 4–7.
        lo: u64,
    },
    /// The rare index that does not pack.
    Spilled(Box<Index>),
}

/// The bit-mask covering the first `k` component groups.
fn group_mask(k: usize) -> u128 {
    if k == 0 {
        0
    } else {
        !0u128 << (128 - 16 * k.min(GROUPS))
    }
}

/// The 128-bit integer of a packed key's two words.
fn join(hi: NonZeroU64, lo: u64) -> u128 {
    let hi = if hi == EMPTY_HI { 0 } else { hi.get() };
    u128::from(hi) << 64 | u128::from(lo)
}

/// Number of component groups in packed `bits`: the zero groups all trail.
fn groups_in(bits: u128) -> usize {
    GROUPS - bits.trailing_zeros() as usize / 16
}

impl IndexKey {
    /// The packed key of canonical `bits`.
    fn packed(bits: u128) -> Self {
        let hi = NonZeroU64::new((bits >> 64) as u64).unwrap_or(EMPTY_HI);
        IndexKey::Packed { hi, lo: bits as u64 }
    }

    /// The 128-bit integer of a packed key; `None` for a spilled one.
    fn bits(&self) -> Option<u128> {
        match self {
            IndexKey::Packed { hi, lo } => Some(join(*hi, *lo)),
            IndexKey::Spilled(_) => None,
        }
    }

    /// Builds the canonical key for a component sequence.
    pub fn from_components(components: &[u32]) -> Self {
        if components.len() <= GROUPS && components.iter().all(|&c| c <= MAX_PACKED_COMPONENT) {
            let mut bits = 0u128;
            for (g, &c) in components.iter().enumerate() {
                bits |= u128::from(c + 1) << (128 - 16 * (g + 1));
            }
            Self::packed(bits)
        } else {
            IndexKey::Spilled(Box::new(Index::from_slice(components)))
        }
    }

    /// Builds the key for an [`Index`].
    pub fn from_index(index: &Index) -> Self {
        Self::from_components(index.as_slice())
    }

    /// Converts back to an [`Index`].
    pub fn to_index(&self) -> Index {
        let mut buf = [0u32; GROUPS];
        Index::from_slice(self.components(&mut buf))
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        match self {
            IndexKey::Packed { hi, lo } => groups_in(join(*hi, *lo)),
            IndexKey::Spilled(index) => index.len(),
        }
    }

    /// The components: decoded into `buf` for a packed key, borrowed from
    /// the box for a spilled one.
    pub(crate) fn components<'a>(&'a self, buf: &'a mut [u32; GROUPS]) -> &'a [u32] {
        match self {
            IndexKey::Spilled(index) => index.as_slice(),
            IndexKey::Packed { hi, lo } => {
                let bits = join(*hi, *lo);
                let n = groups_in(bits);
                for (g, slot) in buf.iter_mut().enumerate().take(n) {
                    *slot = ((bits >> (128 - 16 * (g + 1))) as u32 & 0xFFFF) - 1;
                }
                &buf[..n]
            }
        }
    }

    /// Component `i` of a packed key: `None` past its end, and always for a
    /// spilled key.
    pub(crate) fn packed_component(&self, i: usize) -> Option<u32> {
        let bits = self.bits().filter(|_| i < GROUPS)?;
        let group = (bits >> (128 - 16 * (i + 1))) as u32 & 0xFFFF;
        group.checked_sub(1)
    }

    /// The first `n` components (the whole key if shorter) — a mask for
    /// packed keys, a repack for spilled ones.
    pub fn prefix(&self, n: usize) -> Self {
        match self {
            IndexKey::Packed { hi, lo } => Self::packed(join(*hi, *lo) & group_mask(n)),
            IndexKey::Spilled(index) => {
                Self::from_components(&index.as_slice()[..n.min(index.len())])
            }
        }
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &IndexKey) -> bool {
        match (self.bits(), other.bits()) {
            (Some(a), Some(b)) => b & group_mask(groups_in(a)) == a,
            // A spilled key CAN be short (one huge component), so compare
            // components whenever either side spills.
            _ => {
                let (mut a, mut b) = ([0; GROUPS], [0; GROUPS]);
                other.components(&mut b).starts_with(self.components(&mut a))
            }
        }
    }
}

impl Ord for IndexKey {
    /// Lexicographic on components; one integer compare when both sides are
    /// packed (the overwhelmingly common case).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (IndexKey::Packed { hi: a, lo: b }, IndexKey::Packed { hi: c, lo: d }) => {
                (a, b).cmp(&(c, d))
            }
            _ => {
                let (mut a, mut b) = ([0; GROUPS], [0; GROUPS]);
                self.components(&mut a).cmp(other.components(&mut b))
            }
        }
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<&Index> for IndexKey {
    fn from(index: &Index) -> Self {
        Self::from_index(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_dense_and_stable() {
        let mut t = SymbolTable::default();
        let a = t.intern(&Arc::from("P"));
        let b = t.intern(&Arc::from("Q"));
        let a2 = t.intern(&Arc::from("P"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(&*t.resolve(a), "P");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_of_unknown_name_is_missing() {
        let mut t = SymbolTable::default();
        t.intern(&Arc::from("P"));
        assert_eq!(t.lookup("P"), Sym(0));
        assert_eq!(t.lookup("nope"), Sym::MISSING);
        assert_eq!(&*t.resolve(Sym::MISSING), "");
    }

    #[test]
    fn packing_round_trips() {
        for comps in [
            &[][..],
            &[0],
            &[1, 2, 3],
            &[0xFFFE; 8],
            &[0xFFFF],                    // component too large → spill
            &[0, 1, 2, 3, 4, 5, 6, 7, 8], // too long → spill
        ] {
            let key = IndexKey::from_components(comps);
            assert_eq!(key.to_index().as_slice(), comps, "{comps:?}");
            assert_eq!(key.len(), comps.len());
        }
        assert!(matches!(IndexKey::from_components(&[0xFFFE; 8]), IndexKey::Packed { .. }));
        assert!(matches!(IndexKey::from_components(&[0xFFFF]), IndexKey::Spilled(_)));
    }

    #[test]
    fn packed_order_is_lexicographic() {
        let seqs: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![0, 1],
            vec![1],
            vec![1, 0],
            vec![2],
            vec![0xFFFE],
            vec![0xFFFF],                    // spilled
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8], // spilled
        ];
        let mut keys: Vec<IndexKey> = seqs.iter().map(|s| IndexKey::from_components(s)).collect();
        keys.sort();
        let mut expect = seqs.clone();
        expect.sort();
        let decoded: Vec<Vec<u32>> =
            keys.iter().map(|k| k.to_index().as_slice().to_vec()).collect();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn prefix_and_is_prefix_agree_with_index_semantics() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![1, 2]),
            (vec![1], vec![1, 2]),
            (vec![1, 2], vec![1, 2]),
            (vec![2], vec![1, 2]),
            (vec![1, 2, 3], vec![1, 2]),
            (vec![0xFFFF], vec![0xFFFF, 5]),
            (vec![1], vec![0, 1, 2, 3, 4, 5, 6, 7, 8]),
            (vec![0], vec![0, 1, 2, 3, 4, 5, 6, 7, 8]),
        ];
        for (a, b) in cases {
            let ka = IndexKey::from_components(&a);
            let kb = IndexKey::from_components(&b);
            let ia = Index::from_slice(&a);
            let ib = Index::from_slice(&b);
            assert_eq!(ka.is_prefix_of(&kb), ia.is_prefix_of(&ib), "{a:?} vs {b:?}");
        }
        let k = IndexKey::from_components(&[3, 4, 5]);
        assert_eq!(k.prefix(2), IndexKey::from_components(&[3, 4]));
        assert_eq!(k.prefix(0), IndexKey::from_components(&[]));
        assert_eq!(k.prefix(9), k);
        let spilled = IndexKey::from_components(&[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // A prefix of a spilled key repacks canonically.
        assert!(matches!(spilled.prefix(3), IndexKey::Packed { .. }));
        assert_eq!(spilled.prefix(3), IndexKey::from_components(&[0, 1, 2]));
    }

    #[test]
    fn empty_key_is_minimum() {
        let e = IndexKey::from_components(&[]);
        for comps in [&[0u32][..], &[5], &[0xFFFF], &[0, 0, 0, 0, 0, 0, 0, 0, 0]] {
            assert!(e < IndexKey::from_components(comps));
            assert!(e.is_prefix_of(&IndexKey::from_components(comps)));
        }
        assert_eq!(e.len(), 0);
    }
}
