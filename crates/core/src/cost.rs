//! A static cost model for lineage plans.
//!
//! Predicts, per plan step and in total, the two machine-independent
//! counters the store actually maintains ([`prov_store::QueryStats`]):
//!
//! * **`index_lookups`** — exact: `get_overlapping` costs `|p| + 2` index
//!   probes per step (the ancestor prefix chain plus the descendant
//!   range), independent of trace contents;
//! * **`rows_scanned`** — estimated from per-port slice statistics
//!   ([`PortCardinality`]) under a uniform-branching assumption: a slice
//!   with `keys` distinct element indexes at depth `d` has branching
//!   factor `b = keys^(1/d)`, so a probe of depth `g` selects about
//!   `rows / b^g` of its rows. The estimate is deliberately biased *up*
//!   (the store counts a point probe's exact rows twice — once on the
//!   ancestor chain, once on the descendant scan — so the model doubles
//!   the subtree term and adds one row per ancestor level); for the
//!   balanced collections prov-workgen generates it is an upper bound
//!   within a small constant factor of the true counter, which the
//!   workspace proptests pin at ≤ 10×.
//!
//! Predictions compare against the **sum** of the store's `records_read`
//! and `rows_scanned` counters — rows examined by any access path — so a
//! hypothetical table-scan fallback is charged the same way as an indexed
//! read. [`CostEstimate::check`] packages that comparison for
//! `tprov explain --check`.

use serde::{Deserialize, Serialize};

use prov_store::PortCardinality;

use crate::verify::{PlanReport, StepClass};
use crate::LineagePlan;

/// Predicted cost of one plan step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepCost {
    /// Index probes the step will perform (exact).
    pub index_lookups: u64,
    /// Rows the step will examine (estimate; 0 when no statistics).
    pub rows_scanned: u64,
}

/// Predicted cost of a whole plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Per-step predictions, in plan-step order.
    pub per_step: Vec<StepCost>,
    /// Total predicted index lookups.
    pub index_lookups: u64,
    /// Total predicted rows examined.
    pub rows_scanned: u64,
    /// Whether every step had slice statistics behind its row estimate;
    /// spec-only explanations predict lookups but not rows.
    pub grounded: bool,
}

/// Outcome of cross-checking a prediction against observed counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostCheck {
    /// Predicted index lookups.
    pub predicted_lookups: u64,
    /// Observed index lookups.
    pub actual_lookups: u64,
    /// Predicted rows examined.
    pub predicted_rows: u64,
    /// Observed rows examined (`records_read + rows_scanned`).
    pub actual_rows: u64,
    /// The tolerance factor the row check used.
    pub tolerance: f64,
    /// Whether both checks passed.
    pub ok: bool,
}

impl CostEstimate {
    /// Cross-checks the prediction against observed counters. Lookups must
    /// match exactly (the model is exact there); rows must satisfy
    /// `actual ≤ predicted ≤ tolerance · max(actual, 1)` — an upper bound
    /// that is not wildly loose. Ungrounded estimates skip the row check.
    pub fn check(&self, actual_lookups: u64, actual_rows: u64, tolerance: f64) -> CostCheck {
        let lookups_ok = self.index_lookups == actual_lookups;
        let rows_ok = !self.grounded
            || (self.rows_scanned >= actual_rows
                && (self.rows_scanned as f64) <= tolerance * (actual_rows.max(1) as f64));
        CostCheck {
            predicted_lookups: self.index_lookups,
            actual_lookups,
            predicted_rows: self.rows_scanned,
            actual_rows,
            tolerance,
            ok: lookups_ok && rows_ok,
        }
    }
}

/// The model's tunables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Multiplier on the subtree term. The default of 2.0 mirrors the
    /// store's double-count of exact-key rows and absorbs mild imbalance.
    pub safety: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { safety: 2.0 }
    }
}

impl CostModel {
    /// Predicts the cost of one step given its verdict and (optionally)
    /// the cardinality of the run's `(processor, port)` slice it probes.
    pub fn step_cost(
        &self,
        probe_len: usize,
        class: StepClass,
        served: bool,
        card: Option<PortCardinality>,
    ) -> StepCost {
        if !served {
            // No index to descend: the only option is to scan the slice
            // (when statistics exist) or an unknown amount of the table.
            let rows = card.map(|c| c.rows).unwrap_or(0);
            return StepCost { index_lookups: 0, rows_scanned: rows };
        }
        let index_lookups = probe_len as u64 + 2;
        let rows_scanned = match card {
            None => 0,
            Some(c) if c.rows == 0 => 0,
            Some(c) => {
                // Uniform branching: keys ≈ b^d, so a depth-g probe keeps
                // a 1/b^g fraction of the slice. Clamp g to the stored
                // depth: deeper probes clamp to ancestors (StepClass::
                // ClampedProbe) and read no more than the exact subtree.
                let g = match class {
                    StepClass::FullScan => 0,
                    _ => probe_len.min(c.max_depth),
                };
                let d = c.max_depth.max(1) as f64;
                let b = (c.keys as f64).powf(1.0 / d).max(1.0);
                let subtree = c.rows as f64 / b.powi(g as i32);
                (self.safety * subtree).ceil() as u64 + g as u64
            }
        };
        StepCost { index_lookups, rows_scanned }
    }

    /// Predicts the cost of a whole verified plan. `cardinalities` is one
    /// entry per step, in step order (`None` when no statistics).
    pub fn estimate(
        &self,
        plan: &LineagePlan,
        report: &PlanReport,
        cardinalities: &[Option<PortCardinality>],
    ) -> CostEstimate {
        let mut per_step = Vec::with_capacity(plan.steps.len());
        let mut grounded = true;
        for (i, (step, verdict)) in plan.steps.iter().zip(&report.steps).enumerate() {
            let card = cardinalities.get(i).copied().flatten();
            grounded &= card.is_some();
            per_step.push(self.step_cost(step.index.len(), verdict.class, verdict.served, card));
        }
        CostEstimate {
            index_lookups: per_step.iter().map(|s| s.index_lookups).sum(),
            rows_scanned: per_step.iter().map(|s| s.rows_scanned).sum(),
            grounded: grounded && !per_step.is_empty(),
            per_step,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_are_probe_length_plus_two() {
        let m = CostModel::default();
        let c = m.step_cost(2, StepClass::PointProbe, true, None);
        assert_eq!(c.index_lookups, 4);
        assert_eq!(c.rows_scanned, 0, "no statistics, no row prediction");
    }

    #[test]
    fn uniform_branching_scales_the_subtree() {
        // 9 keys at depth 2 → branching 3; a depth-2 point probe keeps a
        // ninth of the 18 rows, doubled for the store's exact-key recount.
        let m = CostModel::default();
        let card = PortCardinality { keys: 9, rows: 18, max_depth: 2 };
        let c = m.step_cost(2, StepClass::PointProbe, true, Some(card));
        assert_eq!(c.rows_scanned, 2 * 2 + 2);
        // An empty probe reads the whole slice (full scan of the port).
        let c0 = m.step_cost(0, StepClass::FullScan, true, Some(card));
        assert_eq!(c0.rows_scanned, 2 * 18);
    }

    #[test]
    fn unserved_steps_cost_a_slice_scan_and_no_lookups() {
        let m = CostModel::default();
        let card = PortCardinality { keys: 4, rows: 7, max_depth: 1 };
        let c = m.step_cost(1, StepClass::FullScan, false, Some(card));
        assert_eq!(c.index_lookups, 0);
        assert_eq!(c.rows_scanned, 7);
    }

    #[test]
    fn check_enforces_exact_lookups_and_bounded_rows() {
        let est =
            CostEstimate { per_step: vec![], index_lookups: 6, rows_scanned: 8, grounded: true };
        assert!(est.check(6, 5, 10.0).ok);
        assert!(!est.check(7, 5, 10.0).ok, "lookup model must be exact");
        assert!(!est.check(6, 9, 10.0).ok, "prediction must stay an upper bound");
        assert!(!est.check(6, 0, 5.0).ok, "8 > 5 × max(0, 1)");
        let ungrounded = CostEstimate { grounded: false, ..est };
        assert!(ungrounded.check(6, 1000, 10.0).ok, "no stats: rows not checked");
    }
}
