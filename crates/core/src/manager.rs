//! The [`ViewManager`]: the whole VPA lifecycle behind one handle.
//!
//! ```text
//! define view ──► materialize ──► (updates arrive) ──► Validate ──► Propagate ──► Apply
//!                     ▲                                                             │
//!                     └────────────────── refreshed extent ◄──────────────────────┘
//! ```
//!
//! Batches may mix update types and documents (§5.3). Per document the
//! manager processes **deletes, then modifies, then inserts**, each kind as
//! one batch update tree:
//!
//! * deletes propagate against the pre-update store, then apply to it;
//! * inserts apply to the store first, then propagate (post-state);
//! * content-only modifies take the in-place fast path (patch the text in
//!   both the store and the extent — legal exactly when the SAPT shows the
//!   path feeds no predicate/group/order, §5.2.1);
//! * other modifies widen to delete+insert of the deepest *binding anchor*
//!   fragment (the unit the view processes), preserving source position.
//!   This realizes the paper's modify classification (§6.5) with the
//!   delete/insert machinery; the paper's direct modify deltas are an
//!   optimization over the same algebra.
//!
//! The view state itself lives in [`MaintView`] (store-less); the manager
//! pairs it with an owned [`Store`]. Multi-view deployments share one store
//! across many `MaintView`s through the `viewsrv` catalog instead.

use crate::update::{self, ResolvedUpdate, UpdateError, UpdateKind};
use crate::validate::Relevancy;
use crate::view::{text_node_key, widen_modify, MaintView};
use flexkey::FlexKey;
use std::fmt;
use std::time::{Duration, Instant};
use xat::exec::{ExecError, ExecStats};
use xat::plan::Plan;
use xat::translate::TranslateError;
use xat::ViewExtent;
use xmlstore::Store;
use xquery_lang::UpdateBatch;

/// Per-maintenance-round statistics (the Chapter 9 cost breakdown:
/// validate / propagate / apply).
///
/// The phase fields are wall times of the (possibly pool-parallel)
/// sections; `exec` is *summed* over every IMP execution, so it reads as
/// CPU time and can exceed the wall total. [`MaintStats::merge`] is
/// associative and commutative (plain `+` on every field), so aggregating
/// rounds in any order — including pooled completion order — yields the
/// same totals.
#[must_use = "maintenance statistics report the per-phase costs of the round"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintStats {
    pub validate: Duration,
    pub propagate: Duration,
    pub apply: Duration,
    /// Engine statistics accumulated over all IMP executions.
    pub exec: ExecStats,
    pub relevant: usize,
    pub irrelevant: usize,
    /// Modifies served by the in-place fast path.
    pub fast_modifies: usize,
}

impl MaintStats {
    pub fn total(&self) -> Duration {
        self.validate + self.propagate + self.apply
    }

    /// Fold another round in. Field-wise `+`: associative, commutative,
    /// and order-independent by construction (asserted by unit test).
    pub fn merge(&mut self, o: MaintStats) {
        self.validate += o.validate;
        self.propagate += o.propagate;
        self.apply += o.apply;
        self.relevant += o.relevant;
        self.irrelevant += o.irrelevant;
        self.fast_modifies += o.fast_modifies;
        self.exec.merge(&o.exec);
    }
}

/// Any failure across the maintenance lifecycle.
#[derive(Debug)]
pub enum MaintError {
    Translate(TranslateError),
    Exec(ExecError),
    Update(UpdateError),
}

impl fmt::Display for MaintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintError::Translate(e) => write!(f, "{e}"),
            MaintError::Exec(e) => write!(f, "{e}"),
            MaintError::Update(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MaintError {}

impl From<TranslateError> for MaintError {
    fn from(e: TranslateError) -> Self {
        MaintError::Translate(e)
    }
}

impl From<ExecError> for MaintError {
    fn from(e: ExecError) -> Self {
        MaintError::Exec(e)
    }
}

impl From<UpdateError> for MaintError {
    fn from(e: UpdateError) -> Self {
        MaintError::Update(e)
    }
}

impl From<xquery_lang::QueryParseError> for MaintError {
    fn from(e: xquery_lang::QueryParseError) -> Self {
        MaintError::Update(e.into())
    }
}

/// A materialized XQuery view with incremental maintenance.
pub struct ViewManager {
    store: Store,
    view: MaintView,
}

impl ViewManager {
    /// Define and materialize a view over `store` (takes ownership: the
    /// manager is the system of record for the sources).
    pub fn new(store: Store, query: &str) -> Result<ViewManager, MaintError> {
        let mut view = MaintView::define(query)?;
        view.materialize(&store)?;
        Ok(ViewManager { store, view })
    }

    /// The view definition.
    pub fn query(&self) -> &str {
        self.view.query()
    }

    /// The annotated view plan.
    pub fn plan(&self) -> &Plan {
        self.view.plan()
    }

    /// The view's Source Access Pattern Tree.
    pub fn sapt(&self) -> &crate::validate::Sapt {
        self.view.sapt()
    }

    /// Read access to the source store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The store-less view core.
    pub fn view(&self) -> &MaintView {
        &self.view
    }

    /// Override the worker pool IMP terms fan out on (defaults to the
    /// shared [`exec::Executor::global`] pool).
    pub fn set_pool(&mut self, pool: exec::Executor) {
        self.view.set_pool(pool);
    }

    /// The current materialized extent.
    pub fn extent(&self) -> &ViewExtent {
        self.view.extent()
    }

    /// Serialized materialized view.
    pub fn extent_xml(&self) -> String {
        self.view.extent_xml()
    }

    /// Recompute the view from scratch over the current sources — the
    /// correctness oracle (§1.2) and the baseline the Chapter 9 experiments
    /// compare against.
    pub fn recompute(&self) -> Result<ViewExtent, MaintError> {
        self.view.compute_extent(&self.store)
    }

    pub fn recompute_xml(&self) -> Result<String, MaintError> {
        Ok(self.recompute()?.to_xml())
    }

    /// Parse an XQuery-update script and maintain the view incrementally —
    /// thin legacy wrapper over [`UpdateBatch::from_script`] +
    /// [`ViewManager::apply_batch`]; prefer constructing the batch once.
    pub fn apply_update_script(&mut self, script: &str) -> Result<MaintStats, MaintError> {
        self.apply_batch(&UpdateBatch::from_script(script)?)
    }

    /// Maintain the view for a typed update batch: resolve every op against
    /// the pre-update store (counted into the Validate phase), then run the
    /// propagate/apply rounds.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<MaintStats, MaintError> {
        let t0 = Instant::now();
        let resolved = update::resolve_batch(&self.store, batch)?;
        let mut stats = self.apply_resolved(resolved)?;
        // Saturating: the phases are disjoint sub-intervals of `t0..now`,
        // but a coarse clock must never be able to panic the accounting.
        stats.validate += t0.elapsed().saturating_sub(stats.total());
        Ok(stats)
    }

    /// Maintain the view for a batch of resolved updates (mixed kinds and
    /// documents).
    pub fn apply_resolved(
        &mut self,
        updates: Vec<ResolvedUpdate>,
    ) -> Result<MaintStats, MaintError> {
        let mut stats = MaintStats::default();
        // Validate: classify and split the batch.
        let tv = Instant::now();
        let mut relevant: Vec<(ResolvedUpdate, Relevancy)> = Vec::new();
        for u in updates {
            match self.view.sapt().classify(&self.store, &u) {
                Relevancy::Irrelevant => {
                    // Apply to the source; the view is untouched (§5.2.1:
                    // "we prevent unnecessary update propagations").
                    update::apply_to_store(&mut self.store, &u)?;
                    stats.irrelevant += 1;
                }
                r => {
                    stats.relevant += 1;
                    relevant.push((u, r));
                }
            }
        }
        stats.validate += tv.elapsed();
        // Process per document: deletes → modifies → inserts.
        let docs: Vec<String> = self.view.source_docs();
        for doc in docs {
            let mut deletes = Vec::new();
            let mut modifies = Vec::new();
            let mut inserts = Vec::new();
            for (u, r) in relevant.iter().filter(|(u, _)| u.doc() == doc) {
                match u.kind() {
                    UpdateKind::Delete => deletes.push(u.clone()),
                    UpdateKind::Modify => modifies.push((u.clone(), *r)),
                    UpdateKind::Insert => inserts.push(u.clone()),
                }
            }
            let s = self.round_deletes(&doc, deletes)?;
            stats.merge(s);
            let s = self.round_modifies(&doc, modifies)?;
            stats.merge(s);
            let s = self.round_inserts(&doc, inserts)?;
            stats.merge(s);
        }
        // Mirror the per-batch phase split into the global span histograms
        // (`span/vpa/*`) so the paper's three phases are visible in any
        // metrics snapshot, not only to the caller holding these stats.
        obs::record_span("vpa/validate", stats.validate);
        obs::record_span("vpa/propagate", stats.propagate);
        obs::record_span("vpa/apply", stats.apply);
        Ok(stats)
    }

    fn round_deletes(
        &mut self,
        doc: &str,
        dels: Vec<ResolvedUpdate>,
    ) -> Result<MaintStats, MaintError> {
        let mut stats = MaintStats::default();
        if dels.is_empty() {
            return Ok(stats);
        }
        let roots: Vec<FlexKey> = dels
            .iter()
            .map(|u| match u {
                ResolvedUpdate::Delete { target, .. } => target.clone(),
                _ => unreachable!(),
            })
            .collect();
        // Propagate against the pre-update store…
        let tp = Instant::now();
        let (delta, exec) = self.view.propagate(&self.store, doc, &roots, -1)?;
        stats.propagate += tp.elapsed();
        stats.exec.merge(&exec);
        // …then apply to store and extent.
        let ta = Instant::now();
        for r in &roots {
            self.store.delete_subtree(r);
        }
        self.view.apply_delta(delta);
        stats.apply += ta.elapsed();
        Ok(stats)
    }

    fn round_inserts(
        &mut self,
        doc: &str,
        ins: Vec<ResolvedUpdate>,
    ) -> Result<MaintStats, MaintError> {
        let mut stats = MaintStats::default();
        if ins.is_empty() {
            return Ok(stats);
        }
        // Apply to the store first (post-state propagation for inserts).
        let ta0 = Instant::now();
        let mut roots = Vec::with_capacity(ins.len());
        for u in &ins {
            roots.push(update::apply_to_store(&mut self.store, u)?);
        }
        stats.apply += ta0.elapsed();
        let tp = Instant::now();
        let (delta, exec) = self.view.propagate(&self.store, doc, &roots, 1)?;
        stats.propagate += tp.elapsed();
        stats.exec.merge(&exec);
        let ta = Instant::now();
        self.view.apply_delta(delta);
        stats.apply += ta.elapsed();
        Ok(stats)
    }

    fn round_modifies(
        &mut self,
        doc: &str,
        mods: Vec<(ResolvedUpdate, Relevancy)>,
    ) -> Result<MaintStats, MaintError> {
        let mut stats = MaintStats::default();
        for (u, r) in mods {
            let ResolvedUpdate::ReplaceText { target, new_value, .. } = &u else { unreachable!() };
            if r == Relevancy::RelevantContentOnly {
                // Fast path: the text node key is stable under replace_text,
                // so the extent copies are patched in place (§6.5's
                // "modify" classification).
                let ta = Instant::now();
                let text_key = text_node_key(&self.store, target);
                update::apply_to_store(&mut self.store, &u)?;
                if let Some(tk) = text_key {
                    self.view.patch_text_by_key(&tk, new_value);
                }
                stats.apply += ta.elapsed();
                stats.fast_modifies += 1;
                continue;
            }
            // Widen to delete+insert of the binding-anchor fragment.
            let Some(anchor) = self.view.sapt().binding_anchor(&self.store, doc, target) else {
                // No bound ancestor: fall back to recomputation (correct,
                // and only reachable for updates above every binding).
                update::apply_to_store(&mut self.store, &u)?;
                let tr = Instant::now();
                let extent = self.view.compute_extent(&self.store)?;
                self.view.set_extent(extent);
                stats.apply += tr.elapsed();
                continue;
            };
            let widened = widen_modify(&self.store, anchor, target, new_value)?;
            // Delete round (pre-state).
            let tp = Instant::now();
            let (delta, exec) =
                self.view.propagate(&self.store, doc, std::slice::from_ref(&widened.anchor), -1)?;
            stats.propagate += tp.elapsed();
            stats.exec.merge(&exec);
            let ta = Instant::now();
            self.store.delete_subtree(&widened.anchor);
            self.view.apply_delta(delta);
            stats.apply += ta.elapsed();
            // Insert round (post-state) with the modified fragment.
            let ta = Instant::now();
            let new_root = self
                .store
                .insert_fragment(&widened.parent, widened.pos.clone(), &widened.new_frag)
                .ok_or_else(|| UpdateError("re-insert position vanished".into()))?;
            stats.apply += ta.elapsed();
            let tp = Instant::now();
            let (delta, exec) = self.view.propagate(&self.store, doc, &[new_root], 1)?;
            stats.propagate += tp.elapsed();
            stats.exec.merge(&exec);
            let ta = Instant::now();
            self.view.apply_delta(delta);
            stats.apply += ta.elapsed();
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> MaintStats {
        let d = |k: u64| Duration::from_nanos(seed * 1_000 + k);
        let exec = ExecStats {
            total: d(1),
            order_schema: d(2),
            overriding: d(3),
            semid: d(4),
            final_sort: d(5),
            source_rows: seed * 17,
            index_probes: seed * 19,
        };
        MaintStats {
            validate: d(6),
            propagate: d(7),
            apply: d(8),
            exec,
            relevant: seed as usize,
            irrelevant: seed as usize * 3,
            fast_modifies: seed as usize * 7,
        }
    }

    /// Pooled rounds settle in nondeterministic order; the aggregation
    /// must not care. `merge` is field-wise `+`, so associativity and
    /// commutativity hold exactly (no floats involved).
    #[test]
    fn maint_stats_merge_is_associative_and_commutative() {
        let (a, b, c) = (sample(3), sample(11), sample(40));
        let mut ab_c = a;
        ab_c.merge(b);
        ab_c.merge(c);
        let mut bc = b;
        bc.merge(c);
        let mut a_bc = a;
        a_bc.merge(bc);
        assert_eq!(ab_c, a_bc, "associativity");
        let mut ab = a;
        ab.merge(b);
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba, "commutativity");
    }
}
