//! The path matrix: one [`PathSet`] per ordered pair of handles.
//!
//! "The relationships among a set of handles are described by a path matrix.
//! Each entry in the matrix describes the relationship between two handles."
//! (Section 4.)  Besides entry access this module provides the operations the
//! analysis needs: adding/removing/renaming handles, aliasing one handle to
//! another, the control-flow `join`, equality testing for fixpoint
//! detection, and the tabular rendering used to reproduce Figures 2, 3 and 7.
//!
//! Handles are interned [`Symbol`]s and every entry is addressed by a pair of
//! small dense indices: `handles` keeps insertion order (which the rendering,
//! and through it the analysis digest, depends on) and answers
//! `contains`/`index_of` by a scan — the analysis's states hold a handful of
//! handles — and `entries` is a sorted flat vector of
//! `(row << 32 | col, PathSet)` cells.  Both are flat vectors of `Copy`
//! elements, so cloning a matrix is two memcpys and no per-entry allocation.
//! The operations over two matrices ([`PathMatrix::join`],
//! [`PathMatrix::same_relations`]) translate the other side's indices
//! through one map built per call, so they stay linear in the entries
//! however many handles there are.

use crate::intern::{self, Symbol};
use crate::path::Path;
use crate::pathset::PathSet;
use crate::Certainty;
use std::fmt::{self, Write as _};

/// A path matrix over a set of named handles.
///
/// The diagonal of every known handle is `{S}` (definite).  Entries that are
/// absent are empty: the two handles are unrelated.
#[derive(Debug, Clone, Default)]
pub struct PathMatrix {
    /// Handle symbols in insertion order (the order used for display).
    handles: Vec<Symbol>,
    /// Non-empty off-diagonal entries, sorted by `(row << 32) | col` where
    /// row/col index into `handles`.
    entries: Vec<(u64, PathSet)>,
}

fn key(row: u32, col: u32) -> u64 {
    ((row as u64) << 32) | col as u64
}

/// `entries` with each row and column index `i` replaced by `at[i]`, in
/// the same (now unsorted) order.
fn translated(entries: &[(u64, PathSet)], at: &[u32]) -> Vec<(u64, PathSet)> {
    entries
        .iter()
        .map(|&(k, set)| (key(at[(k >> 32) as usize], at[k as u32 as usize]), set))
        .collect()
}

impl PathMatrix {
    /// An empty matrix with no handles.
    pub fn new() -> PathMatrix {
        PathMatrix::default()
    }

    /// A matrix over the given handles, all mutually unrelated.
    pub fn with_handles<I, S>(handles: I) -> PathMatrix
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut m = PathMatrix::new();
        for h in handles {
            m.add_handle(h.as_ref());
        }
        m
    }

    /// The handles known to the matrix, in insertion order.
    pub fn handles(&self) -> &[Symbol] {
        &self.handles
    }

    /// The handle names in insertion order (resolved from the interner).
    pub fn handle_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.handles.iter().map(|s| s.as_str())
    }

    /// The index of `sym` in insertion order, if it is a handle.
    fn index_of(&self, sym: Symbol) -> Option<u32> {
        self.handles
            .iter()
            .position(|&s| s == sym)
            .map(|i| i as u32)
    }

    /// The index of a handle by name, without growing the interner.
    fn index_of_name(&self, name: &str) -> Option<u32> {
        intern::lookup(name).and_then(|sym| self.index_of(sym))
    }

    /// Whether `name` is a handle of this matrix.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of_name(name).is_some()
    }

    /// Whether `sym` is a handle of this matrix.
    pub fn contains_sym(&self, sym: Symbol) -> bool {
        self.index_of(sym).is_some()
    }

    /// Add a handle unrelated to every existing handle.  No-op if present.
    pub fn add_handle(&mut self, name: impl AsRef<str>) {
        self.add_handle_sym(intern::intern(name.as_ref()));
    }

    /// [`PathMatrix::add_handle`] by symbol.
    pub fn add_handle_sym(&mut self, sym: Symbol) {
        if !self.contains_sym(sym) {
            self.handles.push(sym);
        }
    }

    /// Remap entry keys through `map` (old index → `Some(new index)` to keep,
    /// `None` to drop).  When `map` is monotonic over the kept indices the
    /// entries stay sorted; pass `monotonic = false` to re-sort.
    fn remap_entries(&mut self, map: impl Fn(u32) -> Option<u32>, monotonic: bool) {
        let mut kept = 0usize;
        for i in 0..self.entries.len() {
            let (k, set) = self.entries[i];
            let (row, col) = ((k >> 32) as u32, k as u32);
            if let (Some(r), Some(c)) = (map(row), map(col)) {
                self.entries[kept] = (key(r, c), set);
                kept += 1;
            }
        }
        self.entries.truncate(kept);
        if !monotonic {
            self.entries.sort_unstable_by_key(|&(k, _)| k);
        }
    }

    /// Remove a handle and every relationship involving it.
    pub fn remove_handle(&mut self, name: &str) {
        let Some(idx) = self.index_of_name(name) else {
            return;
        };
        self.handles.remove(idx as usize);
        self.remap_entries(
            |i| match i.cmp(&idx) {
                std::cmp::Ordering::Less => Some(i),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(i - 1),
            },
            true,
        );
    }

    /// Keep only the given handles (used to restrict a matrix to the live
    /// handles at a program point).  Single pass — no quadratic rescans.
    pub fn restrict_to<'a>(&mut self, keep: impl IntoIterator<Item = &'a str>) {
        let mut keep_syms: Vec<Symbol> = keep
            .into_iter()
            .filter_map(intern::lookup)
            .filter(|&s| self.contains_sym(s))
            .collect();
        keep_syms.sort_unstable();
        // old index → new index (monotonic: surviving handles keep their
        // relative insertion order).
        let mut new_index: Vec<Option<u32>> = Vec::with_capacity(self.handles.len());
        let mut next = 0u32;
        for &sym in &self.handles {
            if keep_syms.binary_search(&sym).is_ok() {
                new_index.push(Some(next));
                next += 1;
            } else {
                new_index.push(None);
            }
        }
        self.handles
            .retain(|&s| keep_syms.binary_search(&s).is_ok());
        self.remap_entries(|i| new_index[i as usize], true);
    }

    /// Rename a handle, preserving all its relationships.  If the new name
    /// already names a handle, the two handles' relations are merged.
    pub fn rename_handle(&mut self, old: &str, new: impl AsRef<str>) {
        let new = new.as_ref();
        if old == new {
            return;
        }
        let Some(old_idx) = self.index_of_name(old) else {
            return;
        };
        let new_sym = intern::intern(new);
        match self.index_of(new_sym) {
            None => {
                // Plain rename: same index, new symbol; entries untouched.
                self.handles[old_idx as usize] = new_sym;
            }
            Some(new_idx) => {
                // Merge `old` into the existing `new` handle: redirect
                // entries, union on collision, drop the old slot.
                let mut merged: Vec<(u64, PathSet)> = Vec::with_capacity(self.entries.len());
                for &(k, set) in &self.entries {
                    let (mut row, mut col) = ((k >> 32) as u32, k as u32);
                    if row == old_idx {
                        row = new_idx;
                    }
                    if col == old_idx {
                        col = new_idx;
                    }
                    if row == col {
                        continue; // would-be diagonal: always `{S}` implicitly
                    }
                    merged.push((key(row, col), set));
                }
                merged.sort_unstable_by_key(|&(k, _)| k);
                merged.dedup_by(|b, a| {
                    if a.0 == b.0 {
                        a.1 = a.1.union(&b.1);
                        true
                    } else {
                        false
                    }
                });
                self.entries = merged;
                self.handles.remove(old_idx as usize);
                self.remap_entries(
                    |i| {
                        if i > old_idx {
                            Some(i - 1)
                        } else {
                            Some(i)
                        }
                    },
                    true,
                );
            }
        }
    }

    fn entry_at(&self, row: u32, col: u32) -> Option<&PathSet> {
        self.entries
            .binary_search_by_key(&key(row, col), |&(k, _)| k)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The relationship from `a` to `b`.  The diagonal of a known handle is
    /// `{S}`; unknown handles and absent entries are empty.
    pub fn get(&self, a: &str, b: &str) -> PathSet {
        match (self.index_of_name(a), self.index_of_name(b)) {
            (Some(i), Some(j)) => self.get_at(i, j),
            _ => PathSet::empty(),
        }
    }

    /// [`PathMatrix::get`] by symbol.
    pub fn get_sym(&self, a: Symbol, b: Symbol) -> PathSet {
        match (self.index_of(a), self.index_of(b)) {
            (Some(i), Some(j)) => self.get_at(i, j),
            _ => PathSet::empty(),
        }
    }

    fn get_at(&self, row: u32, col: u32) -> PathSet {
        if row == col {
            return PathSet::singleton(Path::same(Certainty::Definite));
        }
        self.entry_at(row, col).copied().unwrap_or_default()
    }

    /// Set the relationship from `a` to `b` (both handles are added if
    /// missing).  Setting the diagonal is ignored — it is always `{S}`.
    pub fn set(&mut self, a: &str, b: &str, set: PathSet) {
        self.set_sym(intern::intern(a), intern::intern(b), set);
    }

    /// [`PathMatrix::set`] by symbol.
    pub fn set_sym(&mut self, a: Symbol, b: Symbol, set: PathSet) {
        self.add_handle_sym(a);
        self.add_handle_sym(b);
        if a == b {
            return;
        }
        let row = self.index_of(a).expect("just added");
        let col = self.index_of(b).expect("just added");
        let k = key(row, col);
        match self.entries.binary_search_by_key(&k, |&(e, _)| e) {
            Ok(i) => {
                if set.is_empty() {
                    self.entries.remove(i);
                } else {
                    self.entries[i].1 = set;
                }
            }
            Err(slot) => {
                if !set.is_empty() {
                    self.entries.insert(slot, (k, set));
                }
            }
        }
    }

    /// Remove every relationship (in both directions) involving `name`, but
    /// keep the handle (its diagonal stays `{S}`).  This is the effect of
    /// `name := nil` / `name := new()` on the matrix.
    pub fn clear_handle(&mut self, name: &str) {
        self.clear_handle_sym(intern::intern(name));
    }

    /// [`PathMatrix::clear_handle`] by symbol.
    pub fn clear_handle_sym(&mut self, sym: Symbol) {
        self.add_handle_sym(sym);
        let idx = self.index_of(sym).expect("just added");
        self.entries
            .retain(|&(k, _)| (k >> 32) as u32 != idx && k as u32 != idx);
    }

    /// Make `dst` an alias of `src` (the effect of `dst := src`): `dst`
    /// takes on exactly `src`'s relationships plus `S` between the two.
    pub fn alias_handle(&mut self, dst: &str, src: &str) {
        self.alias_handle_sym(intern::intern(dst), intern::intern(src));
    }

    /// [`PathMatrix::alias_handle`] by symbol.
    pub fn alias_handle_sym(&mut self, dst: Symbol, src: Symbol) {
        if dst == src {
            return;
        }
        self.clear_handle_sym(dst);
        self.add_handle_sym(src);
        let dst_idx = self.index_of(dst).expect("just added");
        let src_idx = self.index_of(src).expect("just added");
        // Copy src's relations to dst (dst currently has none).
        let copies: Vec<(u64, PathSet)> = self
            .entries
            .iter()
            .filter_map(|&(k, set)| {
                let (row, col) = ((k >> 32) as u32, k as u32);
                if row == src_idx && col != dst_idx {
                    Some((key(dst_idx, col), set))
                } else if col == src_idx && row != dst_idx {
                    Some((key(row, dst_idx), set))
                } else {
                    None
                }
            })
            .collect();
        for (k, set) in copies {
            let slot = self
                .entries
                .binary_search_by_key(&k, |&(e, _)| e)
                .expect_err("dst relations were cleared");
            self.entries.insert(slot, (k, set));
        }
        let s = PathSet::singleton(Path::same(Certainty::Definite));
        self.set_sym(dst, src, s);
        self.set_sym(src, dst, s);
    }

    /// Whether `a` and `b` are *unrelated*: no path in either direction and
    /// they cannot be the same node.  Unrelated handles head disjoint
    /// subtrees in a TREE, so computations on them cannot interfere (§3.1).
    pub fn unrelated(&self, a: &str, b: &str) -> bool {
        match (self.index_of_name(a), self.index_of_name(b)) {
            (Some(i), Some(j)) => {
                i != j && self.entry_at(i, j).is_none() && self.entry_at(j, i).is_none()
            }
            // Unknown handles have no relations, but a handle is never
            // unrelated to itself.
            _ => a != b,
        }
    }

    /// Every non-empty off-diagonal entry as `(row, col, set)`, the indices
    /// into [`PathMatrix::handles`], in row-major index order.
    pub fn indexed_relations(&self) -> impl Iterator<Item = (u32, u32, &PathSet)> {
        self.entries
            .iter()
            .map(|(k, set)| ((k >> 32) as u32, *k as u32, set))
    }

    /// The matrix over `handles`, in that insertion order, whose entries are
    /// exactly `relations` — what [`PathMatrix::indexed_relations`] yields.
    /// Refused unless the handles are distinct and every entry is non-empty,
    /// off the diagonal, in range and in strictly increasing row-major
    /// order: the matrix that yields `handles` and `relations` back.
    pub fn from_indexed(
        handles: Vec<Symbol>,
        relations: impl IntoIterator<Item = (u32, u32, PathSet)>,
    ) -> Result<PathMatrix, &'static str> {
        let relations = relations.into_iter();
        let mut sorted = handles.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err("a handle is listed twice");
        }
        let mut matrix = PathMatrix {
            handles,
            entries: Vec::with_capacity(relations.size_hint().0),
        };
        let n = matrix.handles.len() as u64;
        for (row, col, set) in relations {
            let k = key(row, col);
            if u64::from(row) >= n || u64::from(col) >= n {
                return Err("an entry names no handle");
            }
            if row == col || set.is_empty() {
                return Err("an entry on the diagonal or empty");
            }
            if matrix.entries.last().is_some_and(|&(last, _)| last >= k) {
                return Err("entries out of row-major order");
            }
            matrix.entries.push((k, set));
        }
        Ok(matrix)
    }

    /// Number of non-empty off-diagonal entries.
    pub fn relation_count(&self) -> usize {
        self.entries.len()
    }

    /// Heap footprint of this matrix in bytes (flat vector capacities).
    pub fn heap_bytes(&self) -> usize {
        self.handles.capacity() * std::mem::size_of::<Symbol>()
            + self.entries.capacity() * std::mem::size_of::<(u64, PathSet)>()
    }

    /// Record this matrix's footprint in the process-wide
    /// `analysis.matrix_bytes` high-water gauge.
    pub fn note_footprint(&self) {
        intern::note_matrix_bytes(std::mem::size_of::<PathMatrix>() + self.heap_bytes());
    }

    /// The control-flow join of two matrices (e.g. at the end of an `if`).
    /// Shapes from both sides survive; definiteness survives only when both
    /// sides guarantee a covered path.  Handles present on only one side keep
    /// their relations weakened to *possible*.
    pub fn join(&self, other: &PathMatrix) -> PathMatrix {
        let mut result = PathMatrix {
            handles: self.handles.clone(),
            entries: Vec::with_capacity(self.entries.len() + other.entries.len()),
        };
        // `result` starts with self's handles in order, so self's entry keys
        // are already result keys; other's need translation (and a sort,
        // since the translation permutes indices) unless both sides list
        // the same handles in the same order.
        let translation;
        let theirs: &[(u64, PathSet)] = if other.handles == self.handles {
            &other.entries
        } else {
            let at: Vec<u32> = other
                .handles
                .iter()
                .map(|&sym| {
                    result.index_of(sym).unwrap_or_else(|| {
                        result.handles.push(sym);
                        result.handles.len() as u32 - 1
                    })
                })
                .collect();
            translation = {
                let mut v = translated(&other.entries, &at);
                v.sort_unstable_by_key(|&(k, _)| k);
                v
            };
            &translation
        };
        // Sorted two-pointer merge.  A pair present on both sides joins; a
        // pair present on one side is weakened to *possible* — which is what
        // `PathSet::join` against an empty entry yields, whether the other
        // side lacks the entry or the handles themselves.
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.entries.len() || j < theirs.len() {
            let take_mine =
                j >= theirs.len() || (i < self.entries.len() && self.entries[i].0 <= theirs[j].0);
            let take_theirs =
                i >= self.entries.len() || (j < theirs.len() && theirs[j].0 <= self.entries[i].0);
            let joined = match (take_mine, take_theirs) {
                (true, true) => {
                    let e = (self.entries[i].0, self.entries[i].1.join(&theirs[j].1));
                    i += 1;
                    j += 1;
                    e
                }
                (true, false) => {
                    let e = (self.entries[i].0, self.entries[i].1.weakened());
                    i += 1;
                    e
                }
                (false, true) => {
                    let e = (theirs[j].0, theirs[j].1.weakened());
                    j += 1;
                    e
                }
                (false, false) => unreachable!(),
            };
            if !joined.1.is_empty() {
                result.entries.push(joined);
            }
        }
        result.note_footprint();
        result
    }

    /// Weaken every relationship to *possible* (used by conservative
    /// procedure-call effects).
    pub fn weakened(&self) -> PathMatrix {
        let mut result = self.clone();
        for (_, set) in result.entries.iter_mut() {
            *set = set.weakened();
        }
        result
    }

    /// Whether two matrices describe exactly the same relations over the
    /// same handles (used as the fixpoint termination test).
    pub fn same_relations(&self, other: &PathMatrix) -> bool {
        if self.handles.len() != other.handles.len() || self.entries.len() != other.entries.len() {
            return false;
        }
        if self.handles == other.handles {
            // Same insertion order: keys line up directly.
            return self.entries == other.entries;
        }
        // Handles are distinct and equally many, so the sets are equal iff
        // every one of other's is one of self's.
        let Some(at) = other
            .handles
            .iter()
            .map(|&sym| self.index_of(sym))
            .collect::<Option<Vec<u32>>>()
        else {
            return false;
        };
        let mut theirs = translated(&other.entries, &at);
        theirs.sort_unstable_by_key(|&(k, _)| k);
        self.entries == theirs
    }

    /// The matrix's exact layout as a sequence of words: the handle
    /// symbols in insertion order, then every entry's key and the links
    /// and certainty of each of its paths, each group prefixed by its
    /// length.  Two matrices yield the same words iff they have the same
    /// handles in the same order and the same entries — so whatever
    /// [`PathMatrix::render`] tells apart, these words tell apart too.
    /// Symbols are process-local ids: the words may key memory-only
    /// tables, never anything stored or sent.
    pub fn layout_words(&self, mut word: impl FnMut(u64)) {
        word(self.handles.len() as u64);
        for sym in &self.handles {
            word(u64::from(sym.index()));
        }
        word(self.entries.len() as u64);
        for (k, set) in &self.entries {
            word(*k);
            word(set.len() as u64);
            for path in set.iter() {
                word((path.links().len() as u64) << 1 | u64::from(!path.is_definite()));
                for link in path.links() {
                    word(u64::from(link.min) << 3 | u64::from(link.exact) << 2 | link.dir as u64);
                }
            }
        }
    }

    /// Render the matrix as the kind of table printed in the paper's figures.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`PathMatrix::render`], appended to `out`.  Every entry's text is
    /// written once, into one scratch buffer, so the column widths can be
    /// known before the first line; each cell is then copied from there
    /// and padded in place, and each line trimmed in place.
    pub fn render_into(&self, out: &mut String) {
        if self.handles.is_empty() {
            out.push_str("(empty path matrix)\n");
            return;
        }
        let names: Vec<&str> = self.handle_names().collect();
        // Entry texts, in `entries` order: entry `e` is
        // `texts[starts[e]..starts[e + 1]]`.
        let mut texts = String::new();
        let mut starts = Vec::with_capacity(self.entries.len() + 1);
        starts.push(0);
        for (_, set) in &self.entries {
            write!(texts, "{set}").expect("writing to a String cannot fail");
            starts.push(texts.len());
        }
        let text = |e: usize| &texts[starts[e]..starts[e + 1]];
        // Column 0 holds the row names; column `j + 1` holds handle `j`'s
        // entries under its name, with `S` on the diagonal.
        let mut widths = Vec::with_capacity(names.len() + 1);
        widths.push(names.iter().map(|s| s.len()).max().unwrap_or(0));
        widths.extend(names.iter().map(|s| s.len().max(1)));
        for (e, (k, _)) in self.entries.iter().enumerate() {
            let col = *k as u32 as usize + 1;
            widths[col] = widths[col].max(text(e).len());
        }
        let cell = |out: &mut String, col: usize, text: &str| {
            out.push_str(text);
            let pad = widths[col].saturating_sub(text.chars().count()) + 2;
            out.extend(std::iter::repeat_n(' ', pad));
        };
        let end_line = |out: &mut String, start: usize| {
            let kept = out[start..].trim_end().len();
            out.truncate(start + kept);
            out.push('\n');
        };
        let start = out.len();
        cell(out, 0, "");
        for (j, name) in names.iter().enumerate() {
            cell(out, j + 1, name);
        }
        end_line(out, start);
        // `entries` is sorted row-major, so one cursor walks it in step
        // with the grid.
        let mut next = 0usize;
        for (i, name) in names.iter().enumerate() {
            let start = out.len();
            cell(out, 0, name);
            for j in 0..names.len() {
                let k = key(i as u32, j as u32);
                if i == j {
                    cell(out, j + 1, "S");
                } else if self.entries.get(next).is_some_and(|&(e, _)| e == k) {
                    cell(out, j + 1, text(next));
                    next += 1;
                } else {
                    cell(out, j + 1, "");
                }
            }
            end_line(out, start);
        }
    }
}

impl PartialEq for PathMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.same_relations(other)
    }
}

impl Eq for PathMatrix {}

impl fmt::Display for PathMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Dir;
    use crate::{at_least, exact, same};

    #[test]
    fn diagonal_is_same() {
        let m = PathMatrix::with_handles(["a", "b"]);
        assert!(m.get("a", "a").must_be_same());
        assert!(m.get("b", "b").must_be_same());
        assert!(m.get("a", "b").is_empty());
        assert!(m.unrelated("a", "b"));
        assert!(!m.unrelated("a", "a"));
    }

    #[test]
    fn indexed_relations_rebuild_the_matrix_and_nothing_else() {
        let mut m = PathMatrix::with_handles(["z", "a", "m"]);
        m.set("m", "z", PathSet::singleton(exact(Dir::Left, 1)));
        m.set(
            "z",
            "a",
            PathSet::from_paths([same().weakened(), at_least(Dir::Down, 1)]),
        );
        let relations: Vec<_> = m.indexed_relations().map(|(r, c, s)| (r, c, *s)).collect();
        assert_eq!(
            relations
                .iter()
                .map(|&(r, c, _)| (r, c))
                .collect::<Vec<_>>(),
            [(0, 1), (2, 0)]
        );
        let rebuilt = PathMatrix::from_indexed(m.handles().to_vec(), relations.clone()).unwrap();
        assert_eq!(rebuilt.render(), m.render());
        assert!(rebuilt.handles() == m.handles() && rebuilt == m);

        let set = relations[0].2;
        let refused = |handles: &[&str], relations: &[(u32, u32, PathSet)]| {
            let handles = handles.iter().map(|h| intern::intern(h)).collect();
            PathMatrix::from_indexed(handles, relations.iter().copied()).is_err()
        };
        assert!(refused(&["a", "b", "a"], &[]), "a repeated handle");
        assert!(refused(&["a", "b"], &[(0, 2, set)]), "out of range");
        assert!(refused(&["a", "b"], &[(1, 1, set)]), "on the diagonal");
        assert!(refused(&["a", "b"], &[(0, 1, PathSet::empty())]), "empty");
        assert!(
            refused(&["a", "b"], &[(1, 0, set), (0, 1, set)]),
            "out of order"
        );
        assert!(
            refused(&["a", "b"], &[(0, 1, set), (0, 1, set)]),
            "repeated"
        );
        assert!(!refused(&["a", "b"], &[(0, 1, set), (1, 0, set)]));
    }

    #[test]
    fn unknown_handles_are_unrelated_and_empty() {
        let m = PathMatrix::new();
        assert!(m.get("x", "x").is_empty());
        assert!(m.get("x", "y").is_empty());
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = PathMatrix::new();
        m.set("root", "lside", PathSet::singleton(exact(Dir::Left, 1)));
        assert_eq!(m.get("root", "lside").to_string(), "L1");
        assert!(m.contains("root") && m.contains("lside"));
        assert!(m.get("lside", "root").is_empty());
        assert!(!m.unrelated("root", "lside"));
    }

    #[test]
    fn setting_empty_removes_entry() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        assert_eq!(m.relation_count(), 1);
        m.set("a", "b", PathSet::empty());
        assert_eq!(m.relation_count(), 0);
    }

    #[test]
    fn clear_handle_severs_relations() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        m.set("c", "a", PathSet::singleton(at_least(Dir::Down, 1)));
        m.clear_handle("a");
        assert!(m.get("a", "b").is_empty());
        assert!(m.get("c", "a").is_empty());
        assert!(m.get("a", "a").must_be_same());
        assert!(m.contains("a"));
    }

    #[test]
    fn alias_handle_copies_relations() {
        // Figure 2(a)-ish: a above c; let d := a, then d has a's relations.
        let mut m = PathMatrix::new();
        m.set("a", "c", PathSet::singleton(at_least(Dir::Down, 1)));
        m.set("b", "a", PathSet::singleton(exact(Dir::Left, 1)));
        m.alias_handle("d", "a");
        assert_eq!(m.get("d", "c").to_string(), "D+");
        assert_eq!(m.get("b", "d").to_string(), "L1");
        assert!(m.get("d", "a").must_be_same());
        assert!(m.get("a", "d").must_be_same());
    }

    #[test]
    fn alias_handle_overwrites_previous_relations() {
        let mut m = PathMatrix::new();
        m.set("d", "x", PathSet::singleton(exact(Dir::Left, 5)));
        m.set("a", "c", PathSet::singleton(at_least(Dir::Down, 1)));
        m.alias_handle("d", "a");
        assert!(m.get("d", "x").is_empty(), "old relation must be severed");
        assert_eq!(m.get("d", "c").to_string(), "D+");
    }

    #[test]
    fn self_alias_is_noop() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        m.alias_handle("a", "a");
        assert_eq!(m.get("a", "b").to_string(), "L1");
    }

    #[test]
    fn rename_handle_preserves_relations() {
        let mut m = PathMatrix::new();
        m.set("h", "l", PathSet::singleton(exact(Dir::Left, 1)));
        m.rename_handle("h", "h*");
        assert!(m.contains("h*"));
        assert!(!m.contains("h"));
        assert_eq!(m.get("h*", "l").to_string(), "L1");
    }

    #[test]
    fn rename_handle_merges_into_existing() {
        let mut m = PathMatrix::new();
        m.set("a", "x", PathSet::singleton(exact(Dir::Left, 1)));
        m.set("b", "x", PathSet::singleton(exact(Dir::Right, 1)));
        m.rename_handle("a", "b");
        assert!(!m.contains("a"));
        // relations of both unioned under the surviving handle
        assert_eq!(m.get("b", "x").to_string(), "L1,R1");
    }

    #[test]
    fn remove_handle() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        m.remove_handle("b");
        assert!(!m.contains("b"));
        assert_eq!(m.relation_count(), 0);
    }

    #[test]
    fn restrict_to_live_handles() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        m.set("a", "c", PathSet::singleton(exact(Dir::Right, 1)));
        m.restrict_to(["a", "b"]);
        assert!(m.contains("a") && m.contains("b") && !m.contains("c"));
        assert_eq!(m.relation_count(), 1);
    }

    #[test]
    fn restrict_to_is_linear_over_wide_matrices() {
        // Regression for the old O(n²) restrict/contains: a wide matrix
        // restricted to most of its handles must keep exactly the surviving
        // relations, with insertion order preserved.
        let n = 512usize;
        let names: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
        let mut m = PathMatrix::with_handles(names.iter());
        for i in 0..n - 1 {
            m.set(
                &names[i],
                &names[i + 1],
                PathSet::singleton(exact(Dir::Left, 1)),
            );
        }
        let keep: Vec<&str> = names[..n - 1].iter().map(|s| s.as_str()).collect();
        m.restrict_to(keep.iter().copied());
        assert_eq!(m.handles().len(), n - 1);
        assert_eq!(m.relation_count(), n - 2);
        let order: Vec<&str> = m.handle_names().collect();
        assert_eq!(order, keep, "insertion order preserved");
        assert_eq!(m.get("w0", "w1").to_string(), "L1");
        assert!(!m.contains(&names[n - 1]));
    }

    #[test]
    fn contains_on_wide_matrix_via_index() {
        let n = 1024usize;
        let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
        let m = PathMatrix::with_handles(names.iter());
        for name in &names {
            assert!(m.contains(name));
        }
        assert!(!m.contains("c-not-here"));
    }

    #[test]
    fn join_of_identical_matrices_is_identity() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        assert!(m.join(&m).same_relations(&m));
    }

    #[test]
    fn join_demotes_one_sided_relations() {
        let mut m1 = PathMatrix::with_handles(["a", "b"]);
        m1.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        let m2 = PathMatrix::with_handles(["a", "b"]);
        let j = m1.join(&m2);
        let entry = j.get("a", "b");
        assert_eq!(entry.len(), 1);
        assert!(!entry.has_definite());
    }

    #[test]
    fn join_handles_union() {
        let mut m1 = PathMatrix::with_handles(["a"]);
        m1.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        let m2 = PathMatrix::with_handles(["a", "c"]);
        let j = m1.join(&m2);
        assert!(j.contains("a") && j.contains("b") && j.contains("c"));
        // b only existed on one side: relation kept but weakened
        assert!(!j.get("a", "b").has_definite());
    }

    #[test]
    fn join_preserves_insertion_order() {
        let mut m1 = PathMatrix::with_handles(["a", "b"]);
        m1.set("b", "a", PathSet::singleton(exact(Dir::Left, 1)));
        let mut m2 = PathMatrix::with_handles(["c", "a"]);
        m2.set("c", "a", PathSet::singleton(exact(Dir::Right, 1)));
        let j = m1.join(&m2);
        let order: Vec<&str> = j.handle_names().collect();
        assert_eq!(order, vec!["a", "b", "c"], "self first, then other's new");
        assert_eq!(j.get("b", "a").to_string(), "L1?");
        assert_eq!(j.get("c", "a").to_string(), "R1?");
    }

    #[test]
    fn same_relations_ignores_handle_order() {
        let mut m1 = PathMatrix::with_handles(["a", "b"]);
        m1.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        let mut m2 = PathMatrix::with_handles(["b", "a"]);
        m2.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        assert!(m1.same_relations(&m2));
        m2.set("b", "a", PathSet::singleton(same()));
        assert!(!m1.same_relations(&m2));
    }

    #[test]
    fn render_contains_header_and_entries() {
        // The pA matrix of Figure 7.
        let mut m = PathMatrix::with_handles(["root", "lside", "rside"]);
        m.set("root", "lside", PathSet::singleton(exact(Dir::Left, 1)));
        m.set("root", "rside", PathSet::singleton(exact(Dir::Right, 1)));
        let rendered = m.render();
        assert!(rendered.contains("root"), "{rendered}");
        assert!(rendered.contains("L1"), "{rendered}");
        assert!(rendered.contains("R1"), "{rendered}");
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn render_bytes_are_pinned() {
        // `l`'s column is as wide as its widest entry, not its name; `x`
        // relates to nothing, so `root`'s and `l`'s lines end in an empty
        // cell whose padding is trimmed.
        let mut m = PathMatrix::with_handles(["root", "l", "x"]);
        m.set(
            "root",
            "l",
            PathSet::from_paths([exact(Dir::Left, 1), at_least(Dir::Right, 1).weakened()]),
        );
        assert_eq!(m.get("root", "l").to_string(), "L1,R+?");
        let table = concat!(
            "      root  l       x\n",
            "root  S     L1,R+?\n",
            "l           S\n",
            "x                   S\n",
        );
        assert_eq!(m.render(), table);
        assert_eq!(format!("{m}"), m.render());
        let mut appended = String::from("before\n");
        m.render_into(&mut appended);
        assert_eq!(appended, format!("before\n{table}"));

        let one = PathMatrix::with_handles(["a"]);
        assert_eq!(one.render(), "   a\na  S\n");
        assert_eq!(format!("{one}"), one.render());
        assert_eq!(PathMatrix::new().render(), "(empty path matrix)\n");
        assert_eq!(format!("{}", PathMatrix::new()), PathMatrix::new().render());
    }

    #[test]
    fn layout_words_see_handle_order_and_every_path() {
        let words = |m: &PathMatrix| {
            let mut out = Vec::new();
            m.layout_words(|w| out.push(w));
            out
        };
        let mut ab = PathMatrix::with_handles(["a", "b"]);
        ab.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        let mut ba = PathMatrix::with_handles(["b", "a"]);
        ba.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        assert!(ab.same_relations(&ba));
        assert_ne!(words(&ab), words(&ba), "handle order is part of the layout");
        assert_eq!(words(&ab), words(&ab.clone()));
        for other in [
            PathSet::singleton(exact(Dir::Left, 1).weakened()),
            PathSet::singleton(exact(Dir::Left, 2)),
            PathSet::singleton(at_least(Dir::Left, 1)),
            PathSet::singleton(exact(Dir::Right, 1)),
            PathSet::from_paths([exact(Dir::Left, 1), exact(Dir::Right, 1)]),
        ] {
            let mut changed = ab.clone();
            changed.set("a", "b", other);
            assert_ne!(words(&ab), words(&changed), "{other}");
        }
    }

    #[test]
    fn weakened_matrix() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        let w = m.weakened();
        assert!(!w.get("a", "b").has_definite());
        assert!(m.get("a", "b").has_definite(), "original untouched");
    }

    #[test]
    fn footprint_is_tracked() {
        let mut m = PathMatrix::new();
        m.set("a", "b", PathSet::singleton(exact(Dir::Left, 1)));
        let _ = m.join(&m);
        assert!(crate::intern::matrix_bytes_high_water() > 0);
        assert!(m.heap_bytes() > 0);
    }
}
