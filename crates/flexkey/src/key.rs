//! FlexKeys: Dewey-style node identities built from [`Seg`]s, plus [`Key`],
//! a FlexKey carrying an optional *overriding order* annotation (§3.3.2).

use crate::ordkey::{OrdAtom, OrdKey};
use crate::seg::Seg;
use std::fmt;

/// Helper macro: Debug == Display for key-like types.
macro_rules! fmt_debug_as_display {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(self, f)
        }
    };
}

/// A FlexKey: the node identity / document-order encoding of §3.3.1.
///
/// The identity of a node is the concatenation of its ancestors' segments and
/// its own segment (`b.b.f`). Lexicographic comparison of the segment
/// sequences yields document order (a parent precedes its descendants, which
/// precede its following siblings).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlexKey {
    segs: Vec<Seg>,
}

impl FlexKey {
    /// The empty key (conceptual super-root above all documents).
    pub fn empty() -> FlexKey {
        FlexKey { segs: Vec::new() }
    }

    /// A root key with a single segment.
    pub fn root(seg: Seg) -> FlexKey {
        FlexKey { segs: vec![seg] }
    }

    /// Build from segments.
    pub fn from_segs(segs: Vec<Seg>) -> FlexKey {
        FlexKey { segs }
    }

    /// Parse a dotted form like `"b.b.f"`. Returns `None` on invalid segments.
    pub fn parse(s: &str) -> Option<FlexKey> {
        if s.is_empty() {
            return Some(FlexKey::empty());
        }
        let segs = s.split('.').map(Seg::parse).collect::<Option<Vec<_>>>()?;
        Some(FlexKey { segs })
    }

    /// Number of segments (= depth; root keys have depth 1).
    pub fn depth(&self) -> usize {
        self.segs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    pub fn segs(&self) -> &[Seg] {
        &self.segs
    }

    /// The key of this node's parent, or `None` for a root.
    pub fn parent(&self) -> Option<FlexKey> {
        if self.segs.is_empty() {
            None
        } else {
            Some(FlexKey { segs: self.segs[..self.segs.len() - 1].to_vec() })
        }
    }

    /// The ancestor-or-self of this key at `depth` segments (the whole key
    /// when it is no deeper).
    pub fn prefix(&self, depth: usize) -> FlexKey {
        FlexKey { segs: self.segs[..depth.min(self.segs.len())].to_vec() }
    }

    /// Child key obtained by appending one segment.
    pub fn child(&self, seg: Seg) -> FlexKey {
        let mut segs = self.segs.clone();
        segs.push(seg);
        FlexKey { segs }
    }

    /// The `i`-th child in the canonical dense assignment ([`Seg::nth`]).
    pub fn nth_child(&self, i: usize) -> FlexKey {
        self.child(Seg::nth(i))
    }

    /// Last segment, if any.
    pub fn last_seg(&self) -> Option<&Seg> {
        self.segs.last()
    }

    /// True if `self` is a strict ancestor of `other` (segment-prefix test —
    /// the containment relationship is decided without any data access, one of
    /// the FlexKey properties the paper relies on).
    pub fn is_ancestor_of(&self, other: &FlexKey) -> bool {
        self.segs.len() < other.segs.len() && other.segs[..self.segs.len()] == self.segs[..]
    }

    /// True if `self` is `other`'s parent.
    pub fn is_parent_of(&self, other: &FlexKey) -> bool {
        other.segs.len() == self.segs.len() + 1 && self.is_ancestor_of(other)
    }

    /// True if `self` equals or is an ancestor of `other`.
    pub fn is_self_or_ancestor_of(&self, other: &FlexKey) -> bool {
        self == other || self.is_ancestor_of(other)
    }

    /// Replace the prefix `old` of this key with `new` (used when grafting
    /// fragments during update application). Returns `None` if `old` is not a
    /// prefix of `self`.
    pub fn rebase(&self, old: &FlexKey, new: &FlexKey) -> Option<FlexKey> {
        if !old.is_self_or_ancestor_of(self) {
            return None;
        }
        let mut segs = new.segs.clone();
        segs.extend_from_slice(&self.segs[old.segs.len()..]);
        Some(FlexKey { segs })
    }

    /// A key for a new sibling strictly between `lo` and `hi` (children of the
    /// same parent; either bound may be `None` for first/last position).
    ///
    /// # Panics
    /// In debug builds, if `lo`/`hi` are present but not siblings in order.
    pub fn sibling_between(
        parent: &FlexKey,
        lo: Option<&FlexKey>,
        hi: Option<&FlexKey>,
    ) -> FlexKey {
        debug_assert!(lo.is_none_or(|k| parent.is_parent_of(k)));
        debug_assert!(hi.is_none_or(|k| parent.is_parent_of(k)));
        let seg = Seg::between(lo.and_then(|k| k.last_seg()), hi.and_then(|k| k.last_seg()));
        parent.child(seg)
    }
}

impl fmt::Display for FlexKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.segs.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for FlexKey {
    fmt_debug_as_display!();
}

/// A node reference during query processing: a FlexKey identity plus an
/// optional *overriding order* (the paper's `k[ko]`, §3.3.2).
///
/// When set, the overriding order — not the identity — determines the node's
/// relative position: `order(k) = k.ord.unwrap_or(k.id)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Key {
    pub id: FlexKey,
    pub ord: Option<OrdKey>,
}

impl Key {
    pub fn new(id: FlexKey) -> Key {
        Key { id, ord: None }
    }

    pub fn with_ord(id: FlexKey, ord: OrdKey) -> Key {
        Key { id, ord: Some(ord) }
    }

    /// The order this key represents: the overriding order if set, otherwise
    /// the identity itself.
    pub fn order(&self) -> OrdKey {
        match &self.ord {
            Some(o) => o.clone(),
            None => OrdKey::from_atom(OrdAtom::Key(self.id.clone())),
        }
    }

    /// Drop any overriding order (done by XML Unique / Difference /
    /// Intersection, which by definition restore document order).
    pub fn clear_ord(&mut self) {
        self.ord = None;
    }

    /// Prefix the current order with `prefix` (used by XML Union's column-id
    /// keys, §3.3.2: existing overriding orders are extended, plain keys get
    /// the prefix plus their own order).
    pub fn prefix_ord(&mut self, prefix: OrdAtom) {
        let mut atoms = vec![prefix];
        match self.ord.take() {
            Some(o) => atoms.extend(o.into_atoms()),
            None => atoms.push(OrdAtom::Key(self.id.clone())),
        }
        self.ord = Some(OrdKey::new(atoms));
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    /// Keys compare by the order they *represent* (identity overridden by the
    /// overriding-order annotation), matching the paper's `k1 ≺ k2 ⇔
    /// order(k1) ≺ order(k2)`.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ord {
            Some(o) => write!(f, "{}[{}]", self.id, o),
            None => write!(f, "{}", self.id),
        }
    }
}

impl fmt::Debug for Key {
    fmt_debug_as_display!();
}

impl From<FlexKey> for Key {
    fn from(id: FlexKey) -> Key {
        Key::new(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> FlexKey {
        FlexKey::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["b", "b.b", "b.b.f", "e.l.f", "zb.c"] {
            assert_eq!(k(s).to_string(), s);
        }
        assert_eq!(FlexKey::parse("").unwrap(), FlexKey::empty());
        assert!(FlexKey::parse("b..f").is_none());
        assert!(FlexKey::parse("b.1").is_none());
    }

    #[test]
    fn document_order_parent_before_children_before_siblings() {
        // Mirrors Figure 3.1: bib(b) < book1(b.b) < title(b.b.b) < author(b.b.f)
        // < book2(b.f) < ...
        let order = ["b", "b.b", "b.b.b", "b.b.f", "b.b.f.b", "b.b.f.f", "b.f", "b.f.b"];
        for w in order.windows(2) {
            assert!(k(w[0]) < k(w[1]), "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn ancestry_tests() {
        assert!(k("b").is_ancestor_of(&k("b.b.f")));
        assert!(k("b.b").is_parent_of(&k("b.b.f")));
        assert!(!k("b.b").is_ancestor_of(&k("b.f")));
        assert!(!k("b.b").is_ancestor_of(&k("b.b")));
        assert!(k("b.b").is_self_or_ancestor_of(&k("b.b")));
        // Paper §3.4.4: b.b.f and e.b.f share a suffix but different roots.
        assert!(!k("b").is_ancestor_of(&k("e.b.f")));
    }

    #[test]
    fn parent_child_roundtrip() {
        let key = k("b.f.b");
        assert_eq!(key.parent().unwrap(), k("b.f"));
        assert_eq!(k("b.f").child(Seg::parse("b").unwrap()), key);
        assert_eq!(k("b").parent().unwrap(), FlexKey::empty());
        assert_eq!(FlexKey::empty().parent(), None);
    }

    #[test]
    fn rebase_moves_subtree() {
        let key = k("b.f.b.c");
        assert_eq!(key.rebase(&k("b.f"), &k("e.b")).unwrap(), k("e.b.b.c"));
        assert_eq!(key.rebase(&k("b.f.b.c"), &k("q")).unwrap(), k("q"));
        assert!(key.rebase(&k("b.c"), &k("q")).is_none());
    }

    #[test]
    fn sibling_between_orders_correctly() {
        let parent = k("b");
        let c1 = parent.nth_child(0);
        let c2 = parent.nth_child(1);
        let mid = FlexKey::sibling_between(&parent, Some(&c1), Some(&c2));
        assert!(c1 < mid && mid < c2);
        assert!(parent.is_parent_of(&mid));
        let first = FlexKey::sibling_between(&parent, None, Some(&c1));
        assert!(first < c1);
        let last = FlexKey::sibling_between(&parent, Some(&c2), None);
        assert!(last > c2);
    }

    #[test]
    fn overriding_order_changes_comparison() {
        // T1[b.b..e.f] vs T2[b.f..e.b] from Figure 3.2: identities are
        // arbitrary, order comes from the annotation.
        let t1 = Key::with_ord(
            k("q.f"),
            OrdKey::new(vec![OrdAtom::Key(k("b.b")), OrdAtom::Key(k("e.f"))]),
        );
        let t2 = Key::with_ord(
            k("q.b"),
            OrdKey::new(vec![OrdAtom::Key(k("b.f")), OrdAtom::Key(k("e.b"))]),
        );
        // Identity order says t2 < t1, overriding order says t1 < t2.
        assert!(t2.id < t1.id);
        assert!(t1 < t2);
    }

    #[test]
    fn prefix_ord_extends_existing_annotation() {
        // §3.3.2 XML Union example: col1 = (b.f[b], b.l[f]), prefixing with
        // column key extends, yielding (b.f[b.b], b.l[b.f]).
        let mut key = Key::with_ord(k("b.f"), OrdKey::from_atom(OrdAtom::Key(k("b"))));
        key.prefix_ord(OrdAtom::Key(k("b")));
        assert_eq!(key.to_string(), "b.f[b,b]");
        let mut plain = Key::new(k("f.b"));
        plain.prefix_ord(OrdAtom::Key(k("f")));
        assert_eq!(plain.to_string(), "f.b[f,f.b]");
    }

    /// Tiny deterministic generator (no external deps in this crate): an
    /// LCG driving random keys of 0..5 segments drawn from Seg::nth(0..40).
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 33) as usize) % bound
        }

        fn key(&mut self) -> FlexKey {
            let len = self.next(5);
            FlexKey::from_segs((0..len).map(|_| Seg::nth(self.next(40))).collect())
        }
    }

    #[test]
    fn random_ancestor_implies_less() {
        let mut rng = TestRng(11);
        for _ in 0..2000 {
            let a = rng.key();
            let b = rng.key();
            if a.is_ancestor_of(&b) {
                assert!(a < b, "{a} ancestor of {b} but not smaller");
            }
            // Also force the ancestor relation to hold often.
            let c = b.child(Seg::nth(rng.next(40)));
            if b.is_ancestor_of(&c) {
                assert!(b < c, "{b} !< its descendant {c}");
            }
        }
    }

    #[test]
    fn random_parse_display_roundtrip() {
        let mut rng = TestRng(22);
        for _ in 0..2000 {
            let a = rng.key();
            assert_eq!(FlexKey::parse(&a.to_string()).unwrap(), a);
        }
    }

    #[test]
    fn random_sibling_between_within_parent() {
        let mut rng = TestRng(33);
        for _ in 0..2000 {
            let p = rng.key();
            let i = rng.next(20);
            let j = 21 + rng.next(19);
            let c1 = p.nth_child(i);
            let c2 = p.nth_child(j);
            let m = FlexKey::sibling_between(&p, Some(&c1), Some(&c2));
            assert!(c1 < m && m < c2, "{c1} {m} {c2}");
            assert!(p.is_parent_of(&m));
        }
    }
}
