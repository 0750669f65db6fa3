//! Values flowing through XAT tables: atomic values, node references, items
//! (node reference + overriding order + count), and cells.

use flexkey::{FlexKey, OrdAtom, OrdKey};
use std::cmp::Ordering;
use std::fmt;

/// An atomic (typeless) value, kept textual as in the paper's data model
/// ("atomic values are treated as text nodes", §2.2.1). Comparisons follow
/// the stack's one value rule, [`xmlstore::compare`]: numeric when both
/// sides parse as numbers, textual otherwise — XQuery's untyped-data
/// comparison behaviour for the subset used here.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Atomic(pub String);

impl Atomic {
    pub fn new(s: impl Into<String>) -> Atomic {
        Atomic(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    pub fn as_num(&self) -> Option<f64> {
        xmlstore::number(&self.0)
    }

    /// Value comparison with numeric coercion ([`xmlstore::compare`]).
    pub fn val_cmp(&self, other: &Atomic) -> Ordering {
        xmlstore::compare(&self.0, &other.0)
    }

    /// An order atom encoding this value (numeric encoding when numeric, so
    /// `order by` over numbers sorts numerically).
    pub fn ord_atom(&self) -> OrdAtom {
        match self.as_num() {
            Some(n) => OrdAtom::num(n),
            None => OrdAtom::text(&self.0),
        }
    }
}

impl fmt::Display for Atomic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A reference to an XML node (or value) held in a cell.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ItemRef {
    /// A base node in the storage manager, by FlexKey.
    Base(FlexKey),
    /// A constructed node in the executor's result arena.
    Cons(ConsId),
    /// An atomic value (attribute/text navigation results, distinct values,
    /// aggregates).
    Val(Atomic),
}

/// Index of a constructed node in the executor's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConsId(pub u32);

/// An item: a node reference with an optional overriding order (§3.3.2) and a
/// derivation count (Ch. 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    pub r: ItemRef,
    /// Overriding order — when set, this (not the node identity) positions
    /// the item among its peers.
    pub ord: Option<OrdKey>,
    /// Derivation count (Table 6.1). Items inside tuple cells carry counts
    /// *relative to one derivation of their tuple* (usually 1); once Combine
    /// or a grouping Combine multiplies in the tuple count, the item becomes
    /// *absolute* (`abs` set) — its count is the node's full derivation
    /// count, negative for delete deltas.
    pub count: i64,
    /// True once `count` is an absolute derivation count (set by Combine).
    pub abs: bool,
    /// How navigation from this item treats the registered update fragments
    /// (see [`NavMode`]). Per-item — not per-document — so one IMP term can
    /// mix a ΔS occurrence with S-pre / S-post occurrences of the same
    /// document (§7.2/§7.5: views with multiple operators and self joins).
    pub delta: NavMode,
}

/// Navigation mode with respect to the registered update fragments.
///
/// The telescoped propagation of Chapter 7 needs three views of one stored
/// document: the delta itself, the pre-update state, and the post-update
/// state. With the store holding one physical state, the other two are
/// *navigation modes*: `DeltaOnly` walks only paths into the fragments
/// (the batch update tree, Ch. 5), `Exclude` walks everything but them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NavMode {
    /// Ordinary navigation over the stored state.
    #[default]
    Free,
    /// Only paths leading into / inside update fragments (ΔS).
    DeltaOnly,
    /// Everything except the update fragments (the state "on the other side"
    /// of the update: pre for inserts, post for deletes).
    Exclude,
}

impl Item {
    pub fn base(key: FlexKey) -> Item {
        Item { r: ItemRef::Base(key), ord: None, count: 1, abs: false, delta: NavMode::Free }
    }

    pub fn cons(id: ConsId) -> Item {
        Item { r: ItemRef::Cons(id), ord: None, count: 1, abs: false, delta: NavMode::Free }
    }

    pub fn val(v: impl Into<String>) -> Item {
        Item {
            r: ItemRef::Val(Atomic::new(v)),
            ord: None,
            count: 1,
            abs: false,
            delta: NavMode::Free,
        }
    }

    pub fn with_count(mut self, count: i64) -> Item {
        self.count = count;
        self
    }

    /// The order this item sorts by: the overriding order if present,
    /// otherwise an order derived from the reference itself (document order
    /// for base nodes; values sort after keyed nodes deterministically).
    pub fn order(&self) -> OrdKey {
        match &self.ord {
            Some(o) => o.clone(),
            None => match &self.r {
                ItemRef::Base(k) => OrdKey::from(k.clone()),
                ItemRef::Val(v) => OrdKey::from_atom(v.ord_atom()),
                ItemRef::Cons(id) => OrdKey::from_atom(OrdAtom::Bytes(id.0.to_be_bytes().to_vec())),
            },
        }
    }

    /// Prefix this item's effective order (XML Union column-id semantics,
    /// §3.3.2 / Fig 4.5).
    pub fn prefix_ord(&mut self, prefix: OrdAtom) {
        let current = self.order();
        let mut atoms = vec![prefix];
        atoms.extend(current.into_atoms());
        self.ord = Some(OrdKey::new(atoms));
    }

    /// The base FlexKey if this is a base-node item.
    pub fn as_base(&self) -> Option<&FlexKey> {
        match &self.r {
            ItemRef::Base(k) => Some(k),
            _ => None,
        }
    }

    pub fn as_val(&self) -> Option<&Atomic> {
        match &self.r {
            ItemRef::Val(v) => Some(v),
            _ => None,
        }
    }
}

/// A cell of an XAT table: empty, a single item, or a sequence of items.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Cell {
    #[default]
    Null,
    One(Item),
    Seq(Vec<Item>),
}

impl Cell {
    pub fn one(item: Item) -> Cell {
        Cell::One(item)
    }

    pub fn seq(items: Vec<Item>) -> Cell {
        Cell::Seq(items)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Items contained in this cell (empty for `Null`).
    pub fn items(&self) -> &[Item] {
        match self {
            Cell::Null => &[],
            Cell::One(i) => std::slice::from_ref(i),
            Cell::Seq(v) => v,
        }
    }

    pub fn into_items(self) -> Vec<Item> {
        match self {
            Cell::Null => Vec::new(),
            Cell::One(i) => vec![i],
            Cell::Seq(v) => v,
        }
    }

    /// The single item, if this cell holds exactly one.
    pub fn as_one(&self) -> Option<&Item> {
        match self {
            Cell::One(i) => Some(i),
            Cell::Seq(v) if v.len() == 1 => v.first(),
            _ => None,
        }
    }

    /// Equality for ECC tuple matching (Definition 4.2.4 + Proposition
    /// 4.2.1): by node identity for keyed nodes, by value for values; two
    /// nulls match.
    pub fn ecc_eq(&self, other: &Cell) -> bool {
        match (self, other) {
            (Cell::Null, Cell::Null) => true,
            (a, b) => {
                let (ia, ib) = (a.items(), b.items());
                ia.len() == ib.len() && ia.iter().zip(ib).all(|(x, y)| x.r == y.r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> FlexKey {
        FlexKey::parse(s).unwrap()
    }

    #[test]
    fn atomic_numeric_and_text_comparison() {
        assert_eq!(Atomic::new("39.95").val_cmp(&Atomic::new("65.95")), Ordering::Less);
        assert_eq!(Atomic::new("100").val_cmp(&Atomic::new("20")), Ordering::Greater);
        assert_eq!(Atomic::new("abc").val_cmp(&Atomic::new("abd")), Ordering::Less);
        // Mixed falls back to text.
        assert_eq!(Atomic::new("10").val_cmp(&Atomic::new("x")), Ordering::Less);
        assert_eq!(Atomic::new("1994").val_cmp(&Atomic::new("1994")), Ordering::Equal);
    }

    #[test]
    fn item_order_uses_overriding_order() {
        let mut a = Item::base(k("b.f"));
        let b = Item::base(k("b.b"));
        assert!(a.order() > b.order());
        a.ord = Some(OrdKey::from(k("b")));
        assert!(a.order() < b.order());
    }

    #[test]
    fn prefix_ord_composes() {
        let mut i = Item::base(k("b.f"));
        i.prefix_ord(OrdAtom::Key(k("b")));
        assert_eq!(i.order().atoms().len(), 2);
        // Prefixing again extends at the front.
        i.prefix_ord(OrdAtom::Key(k("c")));
        assert_eq!(i.order().atoms().len(), 3);
        assert_eq!(i.order().atoms()[0], OrdAtom::Key(k("c")));
    }

    #[test]
    fn cell_item_access() {
        let c = Cell::seq(vec![Item::val("a"), Item::val("b")]);
        assert_eq!(c.items().len(), 2);
        assert!(c.as_one().is_none());
        let d = Cell::one(Item::val("x"));
        assert_eq!(d.as_one().unwrap().as_val().unwrap().as_str(), "x");
        assert!(Cell::Null.items().is_empty());
    }

    #[test]
    fn ecc_equality() {
        let a = Cell::one(Item::base(k("b.b")));
        let b = Cell::one(Item::base(k("b.b")).with_count(5));
        assert!(a.ecc_eq(&b), "counts and order do not affect identity");
        let c = Cell::one(Item::base(k("b.f")));
        assert!(!a.ecc_eq(&c));
        assert!(Cell::Null.ecc_eq(&Cell::Null), "null matches null (Prop 4.2.1)");
        assert!(!Cell::Null.ecc_eq(&a));
        let v1 = Cell::one(Item::val("1994"));
        let v2 = Cell::one(Item::val("1994"));
        assert!(v1.ecc_eq(&v2), "value columns match by value");
    }
}
