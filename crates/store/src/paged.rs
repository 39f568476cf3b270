//! Copy-on-write paged containers: the structural sharing under every
//! freeze.
//!
//! Everything in the store and catalog whose size grows with data or
//! history — heap slots, the OID→slot map, version counters, index and
//! grid maps, the task history — lives in fixed-size pages behind `Arc`,
//! and the page pointers themselves live in `Arc`-shared *chunks* of up
//! to [`PAGE`] pointers. Cloning a container copies only its chunk list:
//! O(pages / PAGE) reference bumps, no element is touched. A frozen read
//! view, a compaction capture and the live state therefore share every
//! page until one side writes; a point mutation then `Arc::make_mut`s
//! the chunk and the page it lands in, so a writer after a freeze copies
//! at most one chunk of [`PAGE`] page pointers and one page of [`PAGE`]
//! elements per container it touches — never the whole structure.
//!
//! Both containers serialize exactly like the std collection they
//! replace (`Vec` as a sequence, `BTreeMap` as a key-ordered map), so the
//! on-disk snapshot and catalog formats do not change.

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// Elements per page, and page pointers per chunk. Fixed: a freeze
/// costs `len / PAGE²` reference bumps per container, a post-freeze
/// write copies at most `PAGE` pointers and `PAGE` elements.
pub const PAGE: usize = 128;

type Page<T> = Arc<Vec<T>>;
type Chunk<T> = Arc<Vec<Page<T>>>;

/// A fresh page (or chunk) holding one item, sized for appends.
fn single<T>(item: T) -> Arc<Vec<T>> {
    let mut v = Vec::with_capacity(PAGE);
    v.push(item);
    Arc::new(v)
}

/// A growable vector stored in `Arc`-shared pages of [`PAGE`] elements,
/// grouped in chunks of [`PAGE`] pages. Every page and chunk but the
/// last is full, so indexing is two divisions.
#[derive(Clone)]
pub struct PagedVec<T> {
    chunks: Vec<Chunk<T>>,
    len: usize,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> PagedVec<T> {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element at `i`.
    pub fn get(&self, i: usize) -> Option<&T> {
        let p = i / PAGE;
        self.chunks.get(p / PAGE)?.get(p % PAGE)?.get(i % PAGE)
    }

    /// Mutable element at `i`; copies its chunk and page first if they
    /// are shared.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        let p = i / PAGE;
        let chunk = Arc::make_mut(&mut self.chunks[p / PAGE]);
        Arc::make_mut(&mut chunk[p % PAGE]).get_mut(i % PAGE)
    }

    /// Append at the end.
    pub fn push(&mut self, value: T) {
        self.len += 1;
        let Some(chunk) = self.chunks.last_mut() else {
            self.chunks.push(single(single(value)));
            return;
        };
        let page_full = chunk.last().is_some_and(|p| p.len() == PAGE);
        if !page_full {
            let chunk = Arc::make_mut(chunk);
            let last = chunk.len() - 1;
            Arc::make_mut(&mut chunk[last]).push(value);
        } else if chunk.len() < PAGE {
            Arc::make_mut(chunk).push(single(value));
        } else {
            self.chunks.push(single(single(value)));
        }
    }

    /// Remove and return the last element.
    pub fn pop(&mut self) -> Option<T> {
        let chunk = Arc::make_mut(self.chunks.last_mut()?);
        let page = Arc::make_mut(chunk.last_mut().expect("chunks are non-empty"));
        let value = page.pop();
        if page.is_empty() {
            chunk.pop();
            if chunk.is_empty() {
                self.chunks.pop();
            }
        }
        self.len -= 1;
        value
    }

    /// Elements in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .flat_map(|p| p.iter())
    }
}

impl<T: Clone> FromIterator<T> for PagedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = PagedVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

impl<T: Clone + PartialEq> PartialEq for PagedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for PagedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Clone + Serialize> Serialize for PagedVec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Clone + Deserialize> Deserialize for PagedVec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(Vec::<T>::from_content(c)?.into_iter().collect())
    }
}

/// One chunk of a [`PagedMap`]: up to [`PAGE`] pages plus each page's
/// largest key, so a lookup binary-searches a contiguous key array
/// instead of dereferencing every page it probes.
#[derive(Clone)]
struct MapChunk<K, V> {
    maxes: Vec<K>,
    pages: Vec<Page<(K, V)>>,
}

impl<K: Ord + Clone, V: Clone> MapChunk<K, V> {
    /// A chunk holding one entry, sized exactly: a map may stay tiny
    /// (an index key's posting list often holds one OID).
    fn single(key: K, value: V) -> Arc<MapChunk<K, V>> {
        Arc::new(MapChunk {
            maxes: vec![key.clone()],
            pages: vec![Arc::new(vec![(key, value)])],
        })
    }

    /// Split page `p` in half (it outgrew [`PAGE`]).
    fn split_page(&mut self, p: usize) {
        let full = Arc::make_mut(&mut self.pages[p]);
        let tail = full.split_off(full.len() / 2);
        // The old fence now bounds the tail, at `p + 1`.
        self.maxes.insert(p, last_key(full).clone());
        self.pages.insert(p + 1, Arc::new(tail));
    }

    /// Drop page `p` if empty, or merge it into a neighbour if it fell
    /// under a quarter of [`PAGE`], so the page count stays proportional
    /// to the entry count.
    fn merge_page(&mut self, p: usize) {
        if self.pages[p].is_empty() {
            self.pages.remove(p);
            self.maxes.remove(p);
        } else if self.pages[p].len() < PAGE / 4 && self.pages.len() > 1 {
            let q = if p + 1 < self.pages.len() { p } else { p - 1 };
            let right = Arc::unwrap_or_clone(self.pages.remove(q + 1));
            self.maxes[q] = self.maxes.remove(q + 1);
            Arc::make_mut(&mut self.pages[q]).extend(right);
            if self.pages[q].len() > PAGE {
                self.split_page(q);
            }
        }
    }
}

/// An ordered map stored as a sorted run of `Arc`-shared pages of at
/// most [`PAGE`] entries, grouped in chunks of at most [`PAGE`] pages.
/// Fence keys (each chunk's and each page's largest key) sit in plain
/// arrays, so a lookup is three binary searches over contiguous memory;
/// iteration is in key order, like `BTreeMap`.
#[derive(Clone)]
pub struct PagedMap<K, V> {
    /// Largest key of each chunk.
    maxes: Vec<K>,
    /// Non-empty chunks of non-empty pages; keys strictly increase
    /// across the whole run.
    chunks: Vec<Arc<MapChunk<K, V>>>,
    len: usize,
}

impl<K, V> Default for PagedMap<K, V> {
    fn default() -> Self {
        PagedMap {
            maxes: Vec::new(),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

/// The largest key on a (non-empty) page.
fn last_key<K, V>(page: &[(K, V)]) -> &K {
    &page[page.len() - 1].0
}

impl<K: Ord + Clone, V: Clone> PagedMap<K, V> {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk and page that hold `key` or would receive it, and the
    /// key's position in that page (`Err` = insertion point).
    fn locate(&self, key: &K) -> Option<(usize, usize, Result<usize, usize>)> {
        let last = self.chunks.len().checked_sub(1)?;
        let c = self.maxes.partition_point(|m| m < key).min(last);
        let chunk = &self.chunks[c];
        let p = chunk
            .maxes
            .partition_point(|m| m < key)
            .min(chunk.pages.len() - 1);
        Some((c, p, chunk.pages[p].binary_search_by(|(k, _)| k.cmp(key))))
    }

    /// Mutable entry `i` of page `p` in chunk `c`, copying the chunk and
    /// page first if they are shared.
    fn entry_mut(&mut self, c: usize, p: usize, i: usize) -> &mut (K, V) {
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        &mut Arc::make_mut(&mut chunk.pages[p])[i]
    }

    /// Value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.locate(key)? {
            (c, p, Ok(i)) => Some(&self.chunks[c].pages[p][i].1),
            _ => None,
        }
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Mutable value under `key`; copies its chunk and page first if
    /// they are shared.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.locate(key)? {
            (c, p, Ok(i)) => Some(&mut self.entry_mut(c, p, i).1),
            _ => None,
        }
    }

    /// Insert, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.locate(&key) {
            Some((c, p, Ok(i))) => Some(std::mem::replace(&mut self.entry_mut(c, p, i).1, value)),
            Some((c, p, Err(i))) => {
                self.insert_new(c, p, i, key, value);
                None
            }
            None => {
                self.insert_new(0, 0, 0, key, value);
                None
            }
        }
    }

    /// The value under `key`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let found = match self.locate(&key) {
            Some((c, p, Ok(i))) => Some((c, p, i)),
            Some((c, p, Err(i))) => {
                self.insert_new(c, p, i, key.clone(), make());
                None
            }
            None => {
                self.insert_new(0, 0, 0, key.clone(), make());
                None
            }
        };
        let (c, p, i) = found.unwrap_or_else(|| match self.locate(&key) {
            Some((c, p, Ok(i))) => (c, p, i),
            _ => unreachable!("just inserted"),
        });
        &mut self.entry_mut(c, p, i).1
    }

    /// Insert a new entry at position `i` of page `p` in chunk `c`,
    /// keeping the fences current and splitting pages and chunks that
    /// outgrow [`PAGE`].
    fn insert_new(&mut self, c: usize, p: usize, i: usize, key: K, value: V) {
        self.len += 1;
        let Some(chunk) = self.chunks.get(c) else {
            self.maxes.push(key.clone());
            self.chunks.push(MapChunk::single(key, value));
            return;
        };
        let last_chunk = c + 1 == self.chunks.len();
        let last_page = p + 1 == chunk.pages.len();
        let new_max = i == chunk.pages[p].len();
        if last_chunk && last_page && new_max && chunk.pages[p].len() == PAGE {
            // Appending past the last full page (monotone keys): open a
            // fresh page (and chunk) instead of splitting, so ascending
            // inserts leave full pages behind.
            if chunk.pages.len() < PAGE {
                let chunk = Arc::make_mut(&mut self.chunks[c]);
                chunk.maxes.push(key.clone());
                chunk.pages.push(single((key.clone(), value)));
                self.maxes[c] = key;
            } else {
                self.maxes.push(key.clone());
                self.chunks.push(MapChunk::single(key, value));
            }
            return;
        }
        let fence = new_max.then(|| key.clone());
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        Arc::make_mut(&mut chunk.pages[p]).insert(i, (key, value));
        if let Some(fence) = fence {
            if last_page {
                self.maxes[c] = fence.clone();
            }
            chunk.maxes[p] = fence;
        }
        if chunk.pages[p].len() > PAGE {
            chunk.split_page(p);
        }
        if chunk.pages.len() > PAGE {
            self.split_chunk(c);
        }
    }

    /// Split chunk `c` in half (it outgrew [`PAGE`] pages).
    fn split_chunk(&mut self, c: usize) {
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        let half = chunk.pages.len() / 2;
        let tail = MapChunk {
            maxes: chunk.maxes.split_off(half),
            pages: chunk.pages.split_off(half),
        };
        // The old fence now bounds the tail, at `c + 1`.
        self.maxes.insert(c, chunk.maxes[half - 1].clone());
        self.chunks.insert(c + 1, Arc::new(tail));
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (c, p, i) = match self.locate(key)? {
            (c, p, Ok(i)) => (c, p, i),
            _ => return None,
        };
        self.len -= 1;
        let chunk = Arc::make_mut(&mut self.chunks[c]);
        let page = Arc::make_mut(&mut chunk.pages[p]);
        let (_, value) = page.remove(i);
        if i == page.len() && !page.is_empty() {
            chunk.maxes[p] = last_key(page).clone();
        }
        chunk.merge_page(p);
        if chunk.pages.is_empty() {
            self.chunks.remove(c);
            self.maxes.remove(c);
        } else {
            self.maxes[c] = chunk.maxes[chunk.maxes.len() - 1].clone();
            if chunk.pages.len() < PAGE / 4 && self.chunks.len() > 1 {
                // Merge the underfull chunk into a neighbour.
                let q = if c + 1 < self.chunks.len() { c } else { c - 1 };
                let right = Arc::unwrap_or_clone(self.chunks.remove(q + 1));
                self.maxes[q] = self.maxes.remove(q + 1);
                let left = Arc::make_mut(&mut self.chunks[q]);
                left.maxes.extend(right.maxes);
                left.pages.extend(right.pages);
                if left.pages.len() > PAGE {
                    self.split_chunk(q);
                }
            }
        }
        Some(value)
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.pages.iter())
            .flat_map(|p| p.iter().map(|(k, v)| (k, v)))
    }

    /// Keys in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Values in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Entries whose keys fall in `range`, in key order. Starts with a
    /// binary search, so the cost is O(log n + answers).
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> impl Iterator<Item = (&K, &V)> + '_ {
        let (c, p, i) = match range.start_bound() {
            Bound::Unbounded => (0, 0, 0),
            Bound::Included(lo) => self.lower_bound(|k| k < lo),
            Bound::Excluded(lo) => self.lower_bound(|k| k <= lo),
        };
        let end = range.end_bound().cloned();
        self.chunks
            .get(c..)
            .unwrap_or_default()
            .iter()
            .enumerate()
            .flat_map(move |(j, chunk)| chunk.pages[if j == 0 { p } else { 0 }..].iter())
            .enumerate()
            .flat_map(move |(j, page)| page[if j == 0 { i } else { 0 }..].iter())
            .map(|(k, v)| (k, v))
            .take_while(move |(k, _)| match &end {
                Bound::Unbounded => true,
                Bound::Included(hi) => *k <= hi,
                Bound::Excluded(hi) => *k < hi,
            })
    }

    /// First position whose key fails `before` (keys satisfying it form
    /// a prefix of the run).
    fn lower_bound(&self, before: impl Fn(&K) -> bool) -> (usize, usize, usize) {
        let c = self.maxes.partition_point(|m| before(m));
        let Some(chunk) = self.chunks.get(c) else {
            return (c, 0, 0);
        };
        let p = chunk.maxes.partition_point(|m| before(m));
        (c, p, chunk.pages[p].partition_point(|(k, _)| before(k)))
    }

    /// Build from entries already sorted by strictly increasing key.
    fn from_sorted(entries: impl Iterator<Item = (K, V)>) -> Self {
        let mut out = PagedMap::new();
        let mut page = Vec::new();
        let mut chunk = MapChunk {
            maxes: Vec::new(),
            pages: Vec::new(),
        };
        let seal_page = |chunk: &mut MapChunk<K, V>, page: Vec<(K, V)>| {
            chunk.maxes.push(last_key(&page).clone());
            chunk.pages.push(Arc::new(page));
        };
        for entry in entries {
            out.len += 1;
            page.push(entry);
            if page.len() == PAGE {
                seal_page(&mut chunk, std::mem::take(&mut page));
                if chunk.pages.len() == PAGE {
                    out.seal_chunk(&mut chunk);
                }
            }
        }
        if !page.is_empty() {
            seal_page(&mut chunk, page);
        }
        if !chunk.pages.is_empty() {
            out.seal_chunk(&mut chunk);
        }
        out
    }

    /// Append a built chunk (taking it, leaving an empty one behind).
    fn seal_chunk(&mut self, chunk: &mut MapChunk<K, V>) {
        let full = std::mem::replace(
            chunk,
            MapChunk {
                maxes: Vec::new(),
                pages: Vec::new(),
            },
        );
        self.maxes.push(full.maxes[full.maxes.len() - 1].clone());
        self.chunks.push(Arc::new(full));
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PagedMap<K, V> {
    /// Later duplicates win, as with `BTreeMap`. Input already in
    /// strictly increasing key order (the usual case: rebuilding from a
    /// scan or a serialized map) is paged without sorting.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        if entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Self::from_sorted(entries.into_iter());
        }
        // Stable, so equal keys keep their input order; keep the last.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut deduped: Vec<(K, V)> = Vec::with_capacity(entries.len());
        for entry in entries {
            match deduped.last_mut() {
                Some(last) if last.0 == entry.0 => *last = entry,
                _ => deduped.push(entry),
            }
        }
        Self::from_sorted(deduped.into_iter())
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PartialEq for PagedMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: Ord + Clone, V: Clone + Eq> Eq for PagedMap<K, V> {}

impl<K: Ord + Clone + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PagedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone + Serialize, V: Clone + Serialize> Serialize for PagedMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
}

impl<K: Ord + Clone + Deserialize, V: Clone + Deserialize> Deserialize for PagedMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_map()
            .ok_or_else(|| DeError::new(format!("expected map, got {}", c.kind())))?
            .iter()
            .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Chunks and pages stay non-empty and bounded, keys globally
    /// sorted, and every fence equals the largest key it bounds.
    fn check_invariants(m: &PagedMap<u64, u64>) {
        let mut prev = None;
        let mut n = 0;
        assert_eq!(m.maxes.len(), m.chunks.len());
        for (chunk, chunk_max) in m.chunks.iter().zip(&m.maxes) {
            assert!(!chunk.pages.is_empty() && chunk.pages.len() <= PAGE);
            assert_eq!(chunk.maxes.len(), chunk.pages.len());
            assert_eq!(chunk.maxes.last(), Some(chunk_max));
            for (page, page_max) in chunk.pages.iter().zip(&chunk.maxes) {
                assert!(!page.is_empty() && page.len() <= PAGE);
                assert_eq!(last_key(page), page_max);
                for (k, _) in page.iter() {
                    assert!(prev < Some(*k));
                    prev = Some(*k);
                    n += 1;
                }
            }
        }
        assert_eq!(n, m.len());
    }

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Mixed inserts and removes agree with `BTreeMap`, over a key space
    /// wide enough to split and merge chunks as well as pages.
    fn model_check(keys: u64, steps: u64) {
        let mut paged = PagedMap::new();
        let mut oracle = BTreeMap::new();
        let mut x: u64 = 0x9e37_79b9 + keys;
        for step in 0..steps {
            let r = xorshift(&mut x);
            let key = r % keys;
            if r.is_multiple_of(3) {
                assert_eq!(paged.remove(&key), oracle.remove(&key));
            } else {
                assert_eq!(paged.insert(key, step), oracle.insert(key, step));
            }
            if step.is_multiple_of(4096) {
                check_invariants(&paged);
            }
        }
        check_invariants(&paged);
        assert!(paged.iter().map(|(k, v)| (*k, *v)).eq(oracle.clone()));
        let (lo, hi) = (keys / 10, keys / 3);
        let got: Vec<_> = paged.range(lo..=hi).map(|(k, _)| *k).collect();
        let want: Vec<_> = oracle.range(lo..=hi).map(|(k, _)| *k).collect();
        assert_eq!(got, want);
        let got: Vec<_> = paged
            .range((Bound::Excluded(keys / 2), Bound::Unbounded))
            .map(|(k, _)| *k)
            .collect();
        let want: Vec<_> = oracle
            .range((Bound::Excluded(keys / 2), Bound::Unbounded))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, want);
        assert_eq!(paged.keys().next_back(), oracle.keys().next_back());
        // Drain everything: merges collapse back to nothing.
        for (n, key) in oracle.keys().enumerate() {
            assert!(paged.remove(key).is_some());
            if n.is_multiple_of(4096) {
                check_invariants(&paged);
            }
        }
        assert!(paged.is_empty() && paged.chunks.is_empty());
    }

    #[test]
    fn map_matches_btreemap_under_mixed_edits() {
        model_check(3000, 20_000);
    }

    #[test]
    fn map_matches_btreemap_across_chunks() {
        model_check(4 * (PAGE * PAGE) as u64, 120_000);
    }

    #[test]
    fn clone_shares_pages_and_writes_copy_one() {
        let n = 3 * (PAGE * PAGE) as u64;
        let mut live: PagedMap<u64, u64> = (0..n).map(|k| (k, k)).collect();
        let frozen = live.clone();
        assert_eq!(live.chunks.len(), 3);
        live.insert(5, 99);
        *live.get_mut(&(2 * (PAGE * PAGE) as u64)).unwrap() = 7;
        // Only the two touched chunks, and one page in each, diverged.
        let shared_chunks = live
            .chunks
            .iter()
            .zip(&frozen.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared_chunks, 1);
        let shared_pages = live.chunks[0]
            .pages
            .iter()
            .zip(frozen.chunks[0].pages.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared_pages, PAGE - 1);
        assert_eq!(frozen.get(&5), Some(&5));
        assert_eq!(live.get(&5), Some(&99));
    }

    #[test]
    fn ascending_inserts_fill_pages_and_chunks() {
        let mut m = PagedMap::new();
        for k in 0..(PAGE * PAGE + PAGE) as u64 {
            m.insert(k, ());
        }
        assert_eq!(m.chunks.len(), 2);
        assert!(m.chunks[0].pages.iter().all(|p| p.len() == PAGE));
        assert_eq!(m.chunks[1].pages.len(), 1);
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m: PagedMap<u64, Vec<u64>> = PagedMap::new();
        for k in (0..1000u64).rev() {
            m.get_or_insert_with(k % 300, Vec::new).push(k);
        }
        assert_eq!(m.len(), 300);
        assert_eq!(m.get(&7).unwrap().len(), 4);
    }

    #[test]
    fn vec_push_pop_get_and_sharing() {
        let n = PAGE * PAGE + 3 * PAGE + 5;
        let mut v: PagedVec<usize> = (0..n).collect();
        assert_eq!(v.chunks.len(), 2);
        let frozen = v.clone();
        *v.get_mut(1).unwrap() = 1000;
        v.push(7);
        assert_eq!(frozen.get(1), Some(&1));
        assert_eq!(v.get(1), Some(&1000));
        assert_eq!(v.get(n), Some(&7));
        assert!(Arc::ptr_eq(&v.chunks[0][1], &frozen.chunks[0][1]));
        assert_eq!(v.pop(), Some(7));
        while v.pop().is_some() {}
        assert!(v.is_empty() && v.chunks.is_empty());
        assert_eq!(frozen.len(), n);
        assert!(frozen.iter().copied().eq(0..n));
    }

    #[test]
    fn from_iter_sorts_and_keeps_the_last_duplicate() {
        let input = [(5u64, 'a'), (1, 'b'), (5, 'c'), (3, 'd'), (1, 'e')];
        let paged: PagedMap<u64, char> = input.into_iter().collect();
        let std_map: BTreeMap<u64, char> = input.into_iter().collect();
        assert!(paged.iter().map(|(k, v)| (*k, *v)).eq(std_map));
    }

    #[test]
    fn serde_shape_matches_std_collections() {
        let std_map: BTreeMap<u64, String> = (0..300).map(|k| (k, format!("v{k}"))).collect();
        let paged: PagedMap<u64, String> = std_map.clone().into_iter().collect();
        assert_eq!(paged.to_content(), std_map.to_content());
        let back = PagedMap::<u64, String>::from_content(&std_map.to_content()).unwrap();
        assert_eq!(back, paged);
        let std_vec: Vec<Option<u32>> = (0..300).map(|i| (i % 3 != 0).then_some(i)).collect();
        let paged: PagedVec<Option<u32>> = std_vec.iter().cloned().collect();
        assert_eq!(paged.to_content(), std_vec.to_content());
    }
}
