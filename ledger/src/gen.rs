//! Seeded workload generation: a splitmix64 PRNG and the query-mix
//! generator shared by the `query`, `serve-query` and `serve-mixed`
//! workloads.
//!
//! The mix is *stratified*, not i.i.d.: ops come in blocks of
//! [`BLOCK`] with exact class counts and, inside each class, exact
//! algorithm and hot/cold counts. A duration-bound run that stops on a
//! block boundary therefore measures exactly the declared mix whatever its
//! length, so throughput does not pick up sampling noise from how many
//! slow ops a seed happened to draw. The seed decides the order inside a
//! block, the hot set, and every index and run that is drawn.

/// splitmix64 (Steele, Lea, Flood 2014): the whole PRNG of the benchmark.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2⁻⁴⁰ at our sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Query classes of the mix, in the order of their block counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// `lin(<2TO1_FINAL:Y[i,j]>,{LISTGEN_1})` on one run: plan-bound (t1)
    /// on a plan-cache miss, about a microsecond on a hit.
    Focused,
    /// Focus = `LISTGEN_1`, the join and the first 5 or 20 processors of
    /// each chain (Fig. 10's partially unfocused queries).
    Partial,
    /// Every processor and the workflow itself in the focus set: one plan
    /// step per processor, so probe-bound (t2) and above the step fan-out
    /// threshold of `par.rs`.
    Unfocused,
    /// A focused or partial query over every preloaded run (Fig. 4): the
    /// run fan-out path.
    Multirun,
    /// A forward `impact(...)` query from one `LISTGEN_1` list element.
    Impact,
}

impl Class {
    /// All classes with their count per block of [`BLOCK`] ops:
    /// 55 % / 15 % / 15 % / 10 % / 5 %.
    pub const PER_BLOCK: [(Class, usize); 5] = [
        (Class::Focused, 11),
        (Class::Partial, 3),
        (Class::Unfocused, 3),
        (Class::Multirun, 2),
        (Class::Impact, 1),
    ];

    /// Lower-case name used in reports and span arguments.
    pub fn name(self) -> &'static str {
        match self {
            Class::Focused => "focused",
            Class::Partial => "partial",
            Class::Unfocused => "unfocused",
            Class::Multirun => "multirun",
            Class::Impact => "impact",
        }
    }
}

/// Ops per block; a measured window always ends on a block boundary.
pub const BLOCK: usize = 20;

/// Size of the hot `[i,j]` set.
pub const HOT_PAIRS: usize = 16;

/// Lineage algorithm of an op (impact queries have only one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// INDEXPROJ through a plan (70 % of lineage ops).
    IndexProj,
    /// The naive traversal NI (30 %).
    Ni,
}

impl Algo {
    /// The name the serve protocol and the CLI use.
    pub fn name(self) -> &'static str {
        match self {
            Algo::IndexProj => "indexproj",
            Algo::Ni => "ni",
        }
    }
}

/// One generated query, still structured: [`Op::text`] renders it for a
/// run of a given list size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Query class.
    pub class: Class,
    /// Algorithm (ignored for [`Class::Impact`]).
    pub algo: Algo,
    /// Target index `[i,j]`, drawn for the preloaded list size.
    pub index: (usize, usize),
    /// Whether `index` came from the hot set.
    pub hot: bool,
    /// Chain prefix length of a partial focus set (5 or 20); 0 = `{LISTGEN_1}`.
    pub partial_k: usize,
    /// Which preloaded run a single-run op targets.
    pub run_pick: usize,
    /// One single-run op in four asks for the newest run a concurrent
    /// writer has finished; workloads without a writer ignore it.
    pub newest: bool,
}

impl Op {
    /// Whether the op spans every preloaded run.
    pub fn all_runs(&self) -> bool {
        self.class == Class::Multirun
    }

    /// The query text for a run whose list size is `d` (indexes drawn for
    /// a larger list are folded into range), using `focus` for the
    /// precomputed focus-set strings.
    pub fn text(&self, d: usize, focus: &FocusTexts) -> String {
        let (i, j) = (self.index.0 % d, self.index.1 % d);
        match self.class {
            Class::Impact => format!("impact(<LISTGEN_1:list[{i}]>,{{2TO1_FINAL}})"),
            Class::Unfocused => format!("lin(<2TO1_FINAL:Y[{i},{j}]>,{})", focus.unfocused),
            _ => format!("lin(<2TO1_FINAL:Y[{i},{j}]>,{})", focus.partial(self.partial_k)),
        }
    }
}

/// Focus-set strings of the testbed workflow with chains of length `l`,
/// built once: the unfocused one names 2l+3 processors.
#[derive(Debug, Clone)]
pub struct FocusTexts {
    focused: String,
    partial5: String,
    partial20: String,
    unfocused: String,
}

impl FocusTexts {
    /// Focus sets for the testbed graph with chain length `l`.
    pub fn new(l: usize) -> Self {
        let chains = |k: usize| -> String {
            let mut names = vec!["LISTGEN_1".to_string(), "2TO1_FINAL".to_string()];
            for chain in ["A", "B"] {
                names.extend((1..=k.min(l)).map(|i| format!("CHAIN_{chain}_{i}")));
            }
            format!("{{{}}}", names.join(","))
        };
        let mut all = chains(l);
        all.insert_str(1, "testbed,");
        FocusTexts {
            focused: "{LISTGEN_1}".to_string(),
            partial5: chains(5),
            partial20: chains(20),
            unfocused: all,
        }
    }

    fn partial(&self, k: usize) -> &str {
        match k {
            0 => &self.focused,
            5 => &self.partial5,
            _ => &self.partial20,
        }
    }
}

/// The seeded op stream.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: SplitMix64,
    d: usize,
    runs: usize,
    hot: Vec<(usize, usize)>,
    /// Partial and multirun ops generated so far, alternating their focus.
    partials: usize,
    multiruns: usize,
}

impl OpGen {
    /// A stream over `runs` preloaded runs of list size `d`.
    pub fn new(seed: u64, d: usize, runs: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let hot = (0..HOT_PAIRS).map(|_| (rng.below(d), rng.below(d))).collect();
        OpGen { rng, d, runs, hot, partials: 0, multiruns: 0 }
    }

    /// The next block: exact class counts and, inside each class, exact
    /// algorithm and hot/cold counts — every block costs the same, so a
    /// throughput window of whole blocks does not depend on which blocks it
    /// holds. The seed decides the order.
    pub fn block(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(BLOCK);
        for (class, count) in Class::PER_BLOCK {
            for slot in 0..count {
                ops.push(self.op(class, slot));
            }
        }
        self.rng.shuffle(&mut ops);
        ops
    }

    /// The op in `slot` of its class within a block. Per block NI answers
    /// 3 of 11 focused ops and 1 op of each other lineage class (6 of 19,
    /// 32 %); 2 of 11 focused ops and 1 of 3 partial ones draw a cold
    /// index (both INDEXPROJ, so they are the plan-cache misses), the rest
    /// one of the hot pairs.
    fn op(&mut self, class: Class, slot: usize) -> Op {
        let (ni, cold): (&[usize], &[usize]) = match class {
            Class::Focused => (&[1, 5, 9], &[3, 7]),
            Class::Partial => (&[1], &[2]),
            Class::Unfocused | Class::Multirun => (&[1], &[]),
            Class::Impact => (&[], &[]),
        };
        let algo = if ni.contains(&slot) { Algo::Ni } else { Algo::IndexProj };
        let hot = !cold.contains(&slot);
        let index = if hot {
            self.hot[self.rng.below(HOT_PAIRS)]
        } else {
            (self.rng.below(self.d), self.rng.below(self.d))
        };
        let partial_k = match class {
            Class::Partial => {
                self.partials += 1;
                [5, 20][self.partials % 2]
            }
            Class::Multirun => {
                self.multiruns += 1;
                [0, 5][self.multiruns % 2]
            }
            _ => 0,
        };
        let run_pick = self.rng.below(self.runs);
        let newest = self.rng.below(4) == 0;
        Op { class, algo, index, hot, partial_k, run_pick, newest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(seed: u64, blocks: usize) -> Vec<String> {
        let focus = FocusTexts::new(75);
        let mut gen = OpGen::new(seed, 50, 8);
        (0..blocks).flat_map(|_| gen.block()).map(|op| op.text(50, &focus)).collect()
    }

    #[test]
    fn same_seed_gives_the_same_op_sequence_and_another_seed_does_not() {
        assert_eq!(texts(7, 50), texts(7, 50));
        assert_ne!(texts(7, 50), texts(8, 50));
    }

    #[test]
    fn class_algorithm_and_hot_shares_hold_over_ten_thousand_draws() {
        let mut gen = OpGen::new(42, 50, 8);
        let ops: Vec<Op> = (0..500).flat_map(|_| gen.block()).collect();
        assert_eq!(ops.len(), 10_000);
        let share = |pred: &dyn Fn(&Op) -> bool, of: &dyn Fn(&Op) -> bool| {
            let base = ops.iter().filter(|o| of(o)).count() as f64;
            ops.iter().filter(|o| of(o) && pred(o)).count() as f64 / base
        };
        let all = |_: &Op| true;
        for (class, want) in [
            (Class::Focused, 0.55),
            (Class::Partial, 0.15),
            (Class::Unfocused, 0.15),
            (Class::Multirun, 0.10),
            (Class::Impact, 0.05),
        ] {
            let got = share(&|o| o.class == class, &all);
            assert!((got - want).abs() <= 0.02, "{class:?}: {got} vs {want}");
        }
        let lineage = |o: &Op| o.class != Class::Impact;
        let ni = share(&|o| o.algo == Algo::Ni, &lineage);
        assert!((ni - 0.30).abs() <= 0.02, "NI share {ni}");
        let cold_ni = share(&|o| o.algo == Algo::Ni, &|o| !o.hot);
        assert_eq!(cold_ni, 0.0, "cold draws are plan-cache misses, so never NI");
        let hot = share(&|o| o.hot, &|o| o.class == Class::Focused);
        assert!((hot - 0.80).abs() <= 0.02, "hot share {hot}");
    }

    #[test]
    fn every_block_has_the_same_class_algorithm_and_hot_counts() {
        let mut gen = OpGen::new(3, 4, 2);
        for _ in 0..10 {
            let block = gen.block();
            assert_eq!(block.len(), BLOCK);
            for (class, count) in Class::PER_BLOCK {
                assert_eq!(block.iter().filter(|o| o.class == class).count(), count);
            }
            assert_eq!(block.iter().filter(|o| o.algo == Algo::Ni).count(), 6);
            assert_eq!(block.iter().filter(|o| !o.hot).count(), 3);
        }
    }

    #[test]
    fn text_folds_indexes_into_a_smaller_list_and_names_the_whole_graph_when_unfocused() {
        let focus = FocusTexts::new(3);
        let op = Op {
            class: Class::Focused,
            algo: Algo::IndexProj,
            index: (13, 7),
            hot: false,
            partial_k: 0,
            run_pick: 0,
            newest: false,
        };
        assert_eq!(op.text(10, &focus), "lin(<2TO1_FINAL:Y[3,7]>,{LISTGEN_1})");
        let unfocused = Op { class: Class::Unfocused, ..op.clone() };
        // One comma in the index, one before the focus set, and eight
        // between testbed, LISTGEN_1, 2TO1_FINAL and the 2×3 chain names.
        assert_eq!(unfocused.text(10, &focus).matches(',').count(), 1 + 1 + 8);
        let impact = Op { class: Class::Impact, ..op };
        assert_eq!(impact.text(10, &focus), "impact(<LISTGEN_1:list[3]>,{2TO1_FINAL})");
    }
}
