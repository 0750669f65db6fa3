//! The paged map: a persistent ordered map of `Arc`-shared pages.
//!
//! It holds both of a document's ordered structures — the node map
//! (`FlexKey → Node`) and the path-value index (`IndexKey → ()`, see
//! [`crate::pathindex`]) — so both share one copy-on-write story. The
//! entries live in a sorted sequence of bounded pages, each a sorted run. The sequence itself (the *fence
//! index*: one pointer per page, a page's fence being its first key) is
//! `Arc`-shared too, so cloning a map is one refcount bump. A mutation
//! unshares the fence index — O(pages) refcount bumps — and the one or two
//! pages it touches; every other page stays shared with whoever else holds
//! the previous version, and dropping that version frees only the pages it
//! alone owned. This is what makes a write after [`crate::Store::frozen`]
//! cost O(page), not O(document).
//!
//! Invariants (checked by the model test): pages are non-empty and hold at
//! most [`PAGE_CAP`] entries; keys are strictly ascending within a page and
//! across pages; `len` is the sum of page lengths. A page splits in half
//! when an insert over-fills it and is dropped when a removal empties it.

use flexkey::FlexKey;
use std::cmp::Ordering;
use std::sync::Arc;

/// Most entries a page holds. Unsharing copies one page (≤ this many
/// entries) plus one pointer per page, so the two costs balance around
/// √nodes; 64 suits documents from thousands to millions of nodes.
const PAGE_CAP: usize = 64;

/// Entries per page when bulk-loading: leaves room for a few inserts
/// before the first split.
const PAGE_FILL: usize = PAGE_CAP - PAGE_CAP / 4;

/// What the paged map needs of a key: a total order that can be resumed
/// part-way. Keys are sequences of *units* compared left to right (a
/// FlexKey's segments); a search that knows two keys agree on their first
/// `agreed` units starts comparing past them.
pub(crate) trait PageKey: Clone {
    /// Order `have` against `want`, given that they agree on their first
    /// `agreed` units. Returns the ordering and how many leading units
    /// they turned out to agree on.
    fn cmp_past(have: &Self, want: &Self, agreed: usize) -> (Ordering, usize);

    /// Whether a key greater than `want` that agrees with all `agreed` of
    /// its leading units lies *below* it (in its subtree).
    fn below(want: &Self, agreed: usize) -> bool;
}

impl PageKey for FlexKey {
    /// FlexKeys under one parent agree on all but their last segments, and
    /// every segment is its own heap buffer; skipping the agreed ones is
    /// most of a lookup's cost. (Inlined by force: left as a call from the
    /// generic search, this made node lookups 11% slower than before the
    /// map was generic.)
    #[inline(always)]
    fn cmp_past(have: &FlexKey, want: &FlexKey, mut agrees: usize) -> (Ordering, usize) {
        let (have, want) = (have.segs(), want.segs());
        while agrees < have.len().min(want.len()) && have[agrees] == want[agrees] {
            agrees += 1;
        }
        let ord = match (have.get(agrees), want.get(agrees)) {
            (Some(h), Some(w)) => h.cmp(w),
            (h, w) => h.is_some().cmp(&w.is_some()),
        };
        (ord, agrees)
    }

    /// Greater with all of `want` agreed on: a descendant.
    #[inline(always)]
    fn below(want: &FlexKey, agreed: usize) -> bool {
        agreed == want.segs().len()
    }
}

/// A sorted run of at most [`PAGE_CAP`] entries; never empty inside a map.
#[derive(Clone, Debug)]
struct Page<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Page<K, V> {
    fn fence(&self) -> &K {
        &self.entries[0].0
    }
}

/// A position in the map: `(page, offset)` of an entry, or
/// `(pages.len(), 0)` for the end.
type Pos = (usize, usize);

/// Where a probe key cuts the key order in two.
#[derive(Clone, Copy)]
enum Cut {
    /// Before the key: the far side starts at the first entry `>= key`.
    Before,
    /// After the key: at the first entry `> key`.
    After,
    /// After the key and everything below it.
    AfterSubtree,
}

/// How many of the `n` ascending keys `key_at(0..n)` lie on the near side
/// of `cut` around `key`, and whether one of those compared equals `key`.
///
/// A binary search that never re-reads what it knows: every key between
/// two probed keys shares with `key` the leading units both of them share
/// with it, so each comparison starts past those ([`PageKey::cmp_past`]).
fn partition<'a, K: PageKey + 'a>(
    n: usize,
    key_at: impl Fn(usize) -> &'a K,
    key: &K,
    cut: Cut,
) -> (usize, bool) {
    let (mut lo, mut hi) = (0, n);
    let (mut lo_agrees, mut hi_agrees) = (0, 0);
    let mut met = false;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (ord, agrees) = K::cmp_past(key_at(mid), key, lo_agrees.min(hi_agrees));
        met |= ord.is_eq();
        let near = match cut {
            Cut::Before => ord.is_lt(),
            Cut::After => ord.is_le(),
            Cut::AfterSubtree => ord.is_le() || K::below(key, agrees),
        };
        if near {
            (lo, lo_agrees) = (mid + 1, agrees);
        } else {
            (hi, hi_agrees) = (mid, agrees);
        }
    }
    (lo, met)
}

#[derive(Clone, Debug)]
pub(crate) struct PageMap<K, V> {
    pages: Arc<Vec<Arc<Page<K, V>>>>,
    len: usize,
}

impl<K, V> Default for PageMap<K, V> {
    fn default() -> Self {
        PageMap { pages: Arc::default(), len: 0 }
    }
}

impl<K: PageKey + Ord, V: Clone> PageMap<K, V> {
    /// Bulk-load from a node stream. A strictly ascending stream (what
    /// document load and the codec produce) is paged as is; anything else
    /// is sorted first, the last of equal keys winning — what inserting
    /// the stream entry by entry would yield.
    pub(crate) fn from_entries(mut entries: Vec<(K, V)>) -> PageMap<K, V> {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut unique: Vec<(K, V)> = Vec::with_capacity(entries.len());
            for e in entries {
                match unique.last_mut() {
                    Some(last) if last.0 == e.0 => *last = e,
                    _ => unique.push(e),
                }
            }
            entries = unique;
        }
        let len = entries.len();
        let mut pages = Vec::with_capacity(len.div_ceil(PAGE_FILL));
        let mut rest = entries.into_iter();
        loop {
            let entries: Vec<(K, V)> = rest.by_ref().take(PAGE_FILL).collect();
            if entries.is_empty() {
                break;
            }
            pages.push(Arc::new(Page { entries }));
        }
        PageMap { pages: Arc::new(pages), len }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Position of the first entry on the far side of `cut` around `key`,
    /// and whether `key` itself was met on the way.
    fn seek(&self, key: &K, cut: Cut) -> (Pos, bool) {
        let (p, at_fence) = partition(self.pages.len(), |i| self.pages[i].fence(), key, cut);
        if p == 0 {
            return ((0, 0), at_fence);
        }
        let entries = &self.pages[p - 1].entries;
        let (o, in_page) = partition(entries.len(), |i| &entries[i].0, key, cut);
        (if o == entries.len() { (p, 0) } else { (p - 1, o) }, at_fence || in_page)
    }

    /// Position of `key`, if present.
    fn find(&self, key: &K) -> Option<Pos> {
        let (pos, present) = self.seek(key, Cut::Before);
        present.then_some(pos)
    }

    /// Entries from `(p, o)` to the end, in key order.
    fn iter_from(&self, (p, o): Pos) -> impl Iterator<Item = (&K, &V)> {
        let (head, tail) = match self.pages.get(p) {
            Some(page) => (&page.entries[o..], &self.pages[p + 1..]),
            None => (&[][..], &[][..]),
        };
        head.iter().chain(tail.iter().flat_map(|page| page.entries.iter())).map(|(k, n)| (k, n))
    }

    /// The entry just before `(p, o)`.
    fn entry_before(&self, (p, o): Pos) -> Option<(&K, &V)> {
        let (k, n) = match o {
            0 => self.pages[..p].last()?.entries.last()?,
            _ => &self.pages[p].entries[o - 1],
        };
        Some((k, n))
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.find(key).map(|(p, o)| &self.pages[p].entries[o].1)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.iter_from((0, 0))
    }

    /// Entries at or after `key`, in key order.
    pub(crate) fn range_from(&self, key: &K) -> impl Iterator<Item = (&K, &V)> {
        self.iter_from(self.seek(key, Cut::Before).0)
    }

    /// Entries strictly after `key`, in key order.
    pub(crate) fn range_after(&self, key: &K) -> impl Iterator<Item = (&K, &V)> {
        self.iter_from(self.seek(key, Cut::After).0)
    }

    /// The last entry strictly before `key`.
    pub(crate) fn last_before(&self, key: &K) -> Option<(&K, &V)> {
        self.entry_before(self.seek(key, Cut::Before).0)
    }

    /// Position just past `key` and everything below it (present or not).
    fn subtree_end(&self, key: &K) -> Pos {
        self.seek(key, Cut::AfterSubtree).0
    }

    /// The first entry after `key` and all of its descendants.
    pub(crate) fn first_after_subtree(&self, key: &K) -> Option<(&K, &V)> {
        self.iter_from(self.subtree_end(key)).next()
    }

    /// The last entry before the end of `key`'s subtree: its last
    /// descendant if it has any, else `key` itself or what precedes it.
    pub(crate) fn last_through_subtree(&self, key: &K) -> Option<(&K, &V)> {
        self.entry_before(self.subtree_end(key))
    }

    /// Insert or replace the entry for `key`.
    pub(crate) fn insert(&mut self, key: K, node: V) {
        let ((mut p, mut o), present) = self.seek(&key, Cut::Before);
        let pages = Arc::make_mut(&mut self.pages);
        if present {
            Arc::make_mut(&mut pages[p]).entries[o].1 = node;
            return;
        }
        self.len += 1;
        if pages.is_empty() {
            pages.push(Arc::new(Page { entries: vec![(key, node)] }));
            return;
        }
        // Before a page's first entry means at the end of the page before:
        // fences only move when a page's own first key goes.
        if o == 0 && p > 0 {
            p -= 1;
            o = pages[p].entries.len();
        }
        let page = Arc::make_mut(&mut pages[p]);
        page.entries.insert(o, (key, node));
        if page.entries.len() > PAGE_CAP {
            let upper = page.entries.split_off(page.entries.len() / 2);
            pages.insert(p + 1, Arc::new(Page { entries: upper }));
        }
    }

    /// Mutable access to the node under `key`. Unshares nothing when the
    /// key is absent.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (p, o) = self.find(key)?;
        let page = Arc::make_mut(&mut Arc::make_mut(&mut self.pages)[p]);
        Some(&mut page.entries[o].1)
    }

    /// Remove `key` and every key below it; returns how many entries went.
    /// Removes nothing when `key` itself is absent.
    pub(crate) fn remove_subtree(&mut self, key: &K) -> usize {
        let Some((pa, oa)) = self.find(key) else { return 0 };
        let (pb, ob) = self.subtree_end(key);
        let pages = Arc::make_mut(&mut self.pages);
        let removed = if pa == pb {
            Arc::make_mut(&mut pages[pa]).entries.drain(oa..ob);
            ob - oa
        } else {
            // The range runs from inside page `pa` to inside page `pb`:
            // only those two can keep entries (and only they are copied);
            // every page between them, and `pa` if it goes whole, is dropped.
            let mut removed = ob;
            if ob > 0 {
                Arc::make_mut(&mut pages[pb]).entries.drain(..ob);
            }
            if oa > 0 {
                let head = Arc::make_mut(&mut pages[pa]);
                removed += head.entries.len() - oa;
                head.entries.truncate(oa);
            }
            let dead = pa + usize::from(oa > 0)..pb;
            removed += pages[dead.clone()].iter().map(|p| p.entries.len()).sum::<usize>();
            pages.drain(dead);
            removed
        };
        self.len -= removed;
        removed
    }
}

#[cfg(test)]
impl<K: PageKey + Ord + std::fmt::Debug, V> PageMap<K, V> {
    /// Panic unless every page invariant holds. (A fence is read through
    /// its page, so "fence = first key" holds by construction.)
    pub(crate) fn check_invariants(&self) {
        let mut prev: Option<&K> = None;
        let mut total = 0;
        for page in self.pages.iter() {
            assert!(!page.entries.is_empty(), "empty page");
            assert!(page.entries.len() <= PAGE_CAP, "over-full page: {}", page.entries.len());
            for (k, _) in &page.entries {
                assert!(prev.is_none_or(|p| p < k), "keys out of order at {k:?}");
                prev = Some(k);
            }
            total += page.entries.len();
        }
        assert_eq!(total, self.len, "len out of step with the pages");
    }

    /// How many of this map's pages `other` does not hold by pointer.
    pub(crate) fn pages_not_in(&self, other: &PageMap<K, V>) -> usize {
        self.pages.iter().filter(|p| !other.pages.iter().any(|q| Arc::ptr_eq(p, q))).count()
    }

    pub(crate) fn page_count(&self) -> usize {
        self.pages.len()
    }
}
