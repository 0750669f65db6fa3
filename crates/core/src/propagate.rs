//! The Propagate phase (Ch. 7): deriving and executing Incremental
//! Maintenance Plans.
//!
//! An IMP is the view plan with one occurrence of the updated document
//! replaced by a [`xat::plan::OpKind::DeltaSource`] over the batch update
//! tree — expressed **in the same algebra as the view** and executed by the
//! ordinary engine, the paper's headline design decision (§1.4: "IMPs are
//! expressed in the same algebraic language used in computing the
//! materialized view extents").
//!
//! When the document occurs `k` times in the view (the outer and inner
//! blocks of Fig 1.2(a) both scan bib.xml; self-join views, §7.5), the
//! exact delta telescopes over the occurrences:
//!
//! ```text
//! Δ(V) = Σ_{i<k} V(S_pre at occurrences < i, Δ at occurrence i, S_post at occurrences > i)
//! ```
//!
//! Each term is one engine run; the per-term results are combined by signed
//! deep union into a single *delta update tree*. All operators of the
//! supported algebra are linear in each input under count semantics —
//! except the Left Outer Join's right input, which the executor handles
//! with the §7.4 null-row transition corrections.
//!
//! Because the terms only *read* the store (the delta is injected as a
//! [`xat::plan::OpKind::DeltaSource`]), they are embarrassingly parallel:
//! [`propagate_batch`] resolves every term of a multi-occurrence (self-join)
//! view as one job on the shared [`exec::Executor`] pool, then merges the
//! signed delta trees **in term order** — so the merged delta is
//! byte-identical to the sequential telescoping regardless of pool size.

use flexkey::FlexKey;
use std::sync::Arc;
use xat::exec::{ExecError, ExecStats, Executor};
use xat::plan::Plan;
use xat::VNode;
use xmlstore::Store;

/// Propagate one batch of same-signed update fragments of `doc` through the
/// view. `sign` is +1 for inserts (the store must already be post-update)
/// and −1 for deletes (the store must still be pre-update). Returns the
/// delta update tree roots and the accumulated execution statistics.
///
/// When the view reads `doc` more than once and the batch carries more
/// than one fragment, the telescoped IMP terms run in parallel on `pool`
/// (one engine run per term); a single fragment's terms run inline, in
/// term order, so a one-update commit never waits on another core. The
/// reported [`ExecStats`] are *summed across terms* — CPU-time-like, and
/// possibly larger than the wall time of the call.
pub fn propagate_batch(
    pool: &exec::Executor,
    store: &Store,
    plan: &Plan,
    out_col: &str,
    doc: &str,
    frag_roots: &[FlexKey],
    sign: i64,
) -> Result<(Vec<Arc<VNode>>, ExecStats), ExecError> {
    let mut delta_roots = Vec::new();
    let mut stats = ExecStats::default();
    if frag_roots.is_empty() {
        return Ok((delta_roots, stats));
    }
    let k = plan.count_sources(doc);
    let store_is_post = sign > 0;
    type Term = Result<(Vec<Arc<VNode>>, ExecStats), ExecError>;
    let run_term = |term: usize| -> Term {
        let imp = plan.imp_term(doc, term, store_is_post);
        let mut ex = Executor::new(store);
        ex.set_delta(doc, frag_roots.to_vec(), sign);
        let table = ex.eval(&imp)?;
        if table.n_rows() == 0 {
            return Ok((Vec::new(), ex.stats));
        }
        let ci = table
            .col_idx(out_col)
            .ok_or_else(|| ExecError(format!("IMP output lacks column ${out_col}")))?;
        let items = table.rows[0].cells[ci].items().to_vec();
        let extent = ex.materialize_signed(&items)?;
        Ok((extent.roots, ex.stats))
    };
    // Same rule as the catalog's per-view rounds (`ViewCatalog::fans_out`).
    let fan_out = k > 1 && pool.threads() > 1 && frag_roots.len() > 1;
    let terms: Vec<Term> =
        if fan_out { pool.map((0..k).collect(), run_term) } else { (0..k).map(run_term).collect() };
    // Merge in term order: the telescoping sum is order-sensitive in its
    // intermediate shapes, and determinism across pool sizes depends on it.
    for t in terms {
        let (roots, exec_stats) = t?;
        xat::extent::union_many(&mut delta_roots, roots, true);
        stats.merge(&exec_stats);
    }
    Ok((delta_roots, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xat::extent::deep_union_siblings;
    use xat::translate::translate_query;
    use xmlstore::{Frag, InsertPos};

    const BIB: &str = r#"<bib>
        <book year="1994"><title>A</title></book>
        <book year="2000"><title>B</title></book>
    </bib>"#;

    const VIEW: &str = r#"<r>{ for $b in doc("bib.xml")/bib/book return <t>{$b/title}</t> }</r>"#;

    fn materialize(store: &Store, plan: &Plan, col: &str) -> xat::ViewExtent {
        let mut ex = Executor::new(store);
        let t = ex.eval(plan).unwrap();
        let items = t.rows[0].cells[t.col_idx(col).unwrap()].items().to_vec();
        ex.materialize(&items).unwrap()
    }

    #[test]
    fn single_occurrence_insert_roundtrip() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let (plan, col) = translate_query(VIEW).unwrap();
        let before = materialize(&s, &plan, &col);

        // Insert a book (apply first: store is post-state for inserts).
        let bib = s.doc_root("bib.xml").unwrap();
        let frag =
            Frag::elem("book").attr("year", "1997").child(Frag::elem("title").text_child("C"));
        let new = s.insert_fragment(&bib, InsertPos::Last, &frag).unwrap();

        let (delta, _) =
            propagate_batch(exec::Executor::global(), &s, &plan, &col, "bib.xml", &[new], 1)
                .unwrap();
        let mut roots = before.roots;
        for d in delta {
            deep_union_siblings(&mut roots, d);
        }
        let refreshed = xat::ViewExtent { roots }.to_xml();
        assert_eq!(refreshed, materialize(&s, &plan, &col).to_xml());
        assert!(refreshed.contains("<t><title>C</title></t>"));
    }

    #[test]
    fn single_occurrence_delete_roundtrip() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let (plan, col) = translate_query(VIEW).unwrap();
        let before = materialize(&s, &plan, &col);

        let bib = s.doc_root("bib.xml").unwrap();
        let victim = s.children_named(&bib, "book")[0].clone();
        // Propagate first (store is pre-state for deletes), then apply.
        let (delta, _) = propagate_batch(
            exec::Executor::global(),
            &s,
            &plan,
            &col,
            "bib.xml",
            std::slice::from_ref(&victim),
            -1,
        )
        .unwrap();
        s.delete_subtree(&victim);

        let mut roots = before.roots;
        for d in delta {
            deep_union_siblings(&mut roots, d);
        }
        let refreshed = xat::ViewExtent { roots }.to_xml();
        assert_eq!(refreshed, materialize(&s, &plan, &col).to_xml());
        assert!(!refreshed.contains("<title>A</title>"));
    }

    #[test]
    fn batch_of_fragments_propagates_in_one_pass() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let (plan, col) = translate_query(VIEW).unwrap();
        let before = materialize(&s, &plan, &col);

        let bib = s.doc_root("bib.xml").unwrap();
        let mut roots_new = Vec::new();
        for i in 0..5 {
            let f = Frag::elem("book")
                .attr("year", format!("19{i}0"))
                .child(Frag::elem("title").text_child(format!("N{i}")));
            roots_new.push(s.insert_fragment(&bib, InsertPos::Last, &f).unwrap());
        }
        let (delta, _) =
            propagate_batch(exec::Executor::global(), &s, &plan, &col, "bib.xml", &roots_new, 1)
                .unwrap();
        let mut roots = before.roots;
        for d in delta {
            deep_union_siblings(&mut roots, d);
        }
        assert_eq!(xat::ViewExtent { roots }.to_xml(), materialize(&s, &plan, &col).to_xml());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut s = Store::new();
        s.load_doc("bib.xml", BIB).unwrap();
        let (plan, col) = translate_query(VIEW).unwrap();
        let (delta, _) =
            propagate_batch(exec::Executor::global(), &s, &plan, &col, "bib.xml", &[], 1).unwrap();
        assert!(delta.is_empty());
    }
}
