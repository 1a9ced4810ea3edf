//! Canonical, bounded sets of paths — one path-matrix entry.
//!
//! An entry `r[a,b]` is a set of paths.  The set is kept small and canonical:
//!
//! * duplicate shapes are merged (keeping the stronger certainty),
//! * a *possible* path covered by another path in the set is dropped,
//! * if the set grows beyond [`MAX_PATHS`], link paths are pairwise
//!   generalized until it fits — a widening that keeps the abstract domain
//!   finite.
//!
//! Like [`Path`], the set is stored inline (`[Path; MAX_PATHS + 1]` plus a
//! length byte; one spare slot holds the transient overflow while widening
//! runs), so a `PathSet` is `Copy` and cloning a matrix entry is a memcpy.
//!
//! A set's text is the one the paper prints — `S?,D+?`, `R1L1`, `·` for the
//! empty set — and it reads back: [`str::parse`] is the exact inverse of
//! [`Display`](fmt::Display), which is how a stored analysis holds its sets.

use crate::link::{Dir, Link};
use crate::path::{Certainty, Path, MAX_LINKS};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Maximum number of paths retained per matrix entry before widening.
pub const MAX_PATHS: usize = 4;

/// Inline capacity: one spare slot beyond [`MAX_PATHS`] for the push that
/// triggers widening.
const CAP: usize = MAX_PATHS + 1;

/// A canonical set of paths describing the relationship between two handles.
#[derive(Debug, Clone, Copy)]
pub struct PathSet {
    paths: [Path; CAP],
    len: u8,
}

impl Default for PathSet {
    fn default() -> Self {
        PathSet {
            paths: [Path::same(Certainty::Definite); CAP],
            len: 0,
        }
    }
}

impl PathSet {
    /// The empty relationship: the two handles are unrelated.
    pub fn empty() -> PathSet {
        PathSet::default()
    }

    /// A singleton set.
    pub fn singleton(path: Path) -> PathSet {
        let mut s = PathSet::empty();
        s.insert(path);
        s
    }

    /// Build from an iterator of paths.
    pub fn from_paths(paths: impl IntoIterator<Item = Path>) -> PathSet {
        let mut s = PathSet::empty();
        for p in paths {
            s.insert(p);
        }
        s
    }

    /// Whether the set is empty (the handles are unrelated).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of paths in the set.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Iterate over the paths.
    pub fn iter(&self) -> impl Iterator<Item = &Path> {
        self.paths().iter()
    }

    /// The paths as a slice.
    pub fn paths(&self) -> &[Path] {
        &self.paths[..self.len as usize]
    }

    fn paths_mut(&mut self) -> &mut [Path] {
        &mut self.paths[..self.len as usize]
    }

    /// Whether the set contains `S` (definitely or possibly): the two
    /// handles may name the same node.
    pub fn may_be_same(&self) -> bool {
        self.iter().any(Path::is_same)
    }

    /// Whether the set contains a definite `S`: the two handles certainly
    /// name the same node.
    pub fn must_be_same(&self) -> bool {
        self.iter().any(|p| p.is_same() && p.is_definite())
    }

    /// Whether any (definite or possible) path of one or more links exists —
    /// i.e. `b` may be a proper descendant of `a`.
    pub fn may_be_descendant(&self) -> bool {
        self.iter().any(|p| !p.is_same())
    }

    /// Whether the relationship definitely holds via some path
    /// (some member is definite).
    pub fn has_definite(&self) -> bool {
        self.iter().any(Path::is_definite)
    }

    /// Insert a path, keeping the set canonical.
    pub fn insert(&mut self, path: Path) {
        // Exact-shape duplicate: keep the stronger certainty.
        for existing in self.paths_mut() {
            if existing.same_shape(&path) {
                if path.is_definite() {
                    existing.certainty = Certainty::Definite;
                }
                return;
            }
        }
        // A possible path already covered by an existing path adds nothing.
        if !path.is_definite() && self.iter().any(|p| p.covers(&path)) {
            return;
        }
        // Drop existing possible paths that the new path covers.
        self.retain(|p| p.is_definite() || !path.covers(p) || p.same_shape(&path));
        self.paths[self.len as usize] = path;
        self.len += 1;
        self.paths_mut().sort_unstable();
        if self.len as usize > MAX_PATHS {
            self.widen_to_fit();
        }
    }

    /// In-place `Vec::retain` over the inline array.
    fn retain(&mut self, keep: impl Fn(&Path) -> bool) {
        let mut kept = 0usize;
        for i in 0..self.len as usize {
            if keep(&self.paths[i]) {
                self.paths[kept] = self.paths[i];
                kept += 1;
            }
        }
        self.len = kept as u8;
    }

    fn remove(&mut self, idx: usize) {
        for i in idx..self.len as usize - 1 {
            self.paths[i] = self.paths[i + 1];
        }
        self.len -= 1;
    }

    /// Union of two sets.
    pub fn union(&self, other: &PathSet) -> PathSet {
        let mut result = *self;
        for p in other.iter() {
            result.insert(*p);
        }
        result
    }

    /// The control-flow join of two entries (meet of information): every
    /// shape of either side survives, but a path stays definite only if the
    /// *other* side also guarantees a path it covers.  Joining an entry with
    /// itself is the identity.
    pub fn join(&self, other: &PathSet) -> PathSet {
        if self == other {
            return *self;
        }
        let mut result = PathSet::empty();
        for (mine, theirs) in [(self, other), (other, self)] {
            for p in mine.iter() {
                let certainty =
                    if p.is_definite() && theirs.iter().any(|q| q.is_definite() && p.covers(q)) {
                        Certainty::Definite
                    } else {
                        Certainty::Possible
                    };
                result.insert(p.with_certainty(certainty));
            }
        }
        result
    }

    /// Demote every path to *possible*.
    pub fn weakened(&self) -> PathSet {
        PathSet::from_paths(self.iter().map(Path::weakened))
    }

    /// Map every path through `f`, rebuilding a canonical set.
    pub fn map(&self, f: impl Fn(&Path) -> Path) -> PathSet {
        PathSet::from_paths(self.iter().map(f))
    }

    /// Keep only paths satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&Path) -> bool) -> PathSet {
        PathSet::from_paths(self.iter().filter(|p| f(p)).copied())
    }

    /// Concatenate every path of `self` with every path of `other`
    /// (`{p · q | p ∈ self, q ∈ other}`).
    pub fn concat(&self, other: &PathSet) -> PathSet {
        let mut result = PathSet::empty();
        for p in self.iter() {
            for q in other.iter() {
                result.insert(p.concat(q));
            }
        }
        result
    }

    /// Whether every path of `other` is covered by some path of `self`
    /// (shape containment of the described relations).
    pub fn covers(&self, other: &PathSet) -> bool {
        other.iter().all(|q| self.iter().any(|p| p.covers(q)))
    }

    fn widen_to_fit(&mut self) {
        while self.len as usize > MAX_PATHS {
            // Generalize the two "closest" link paths (prefer pairs that
            // generalize at all; `S` cannot be merged with link paths).
            let mut best: Option<(usize, usize, Path)> = None;
            'outer: for i in 0..self.len as usize {
                for j in (i + 1)..self.len as usize {
                    if let Some(g) = self.paths[i].generalize(&self.paths[j]) {
                        best = Some((i, j, g));
                        break 'outer;
                    }
                }
            }
            match best {
                Some((i, j, g)) => {
                    // Remove j first (j > i) to keep indices valid.
                    self.remove(j);
                    self.remove(i);
                    // Re-insert through the canonical path.
                    let mut rebuilt = PathSet::from_paths(self.iter().copied());
                    rebuilt.insert(g);
                    *self = rebuilt;
                }
                None => break, // only `S` variants remain; nothing to widen
            }
        }
    }
}

impl PartialEq for PathSet {
    fn eq(&self, other: &Self) -> bool {
        self.paths() == other.paths()
    }
}

impl Eq for PathSet {}

impl Hash for PathSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.paths().hash(state);
    }
}

impl fmt::Display for PathSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "·");
        }
        for (i, path) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{path}")?;
        }
        Ok(())
    }
}

/// Why a text is not the rendering of a path set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsePathSetError(&'static str);

impl fmt::Display for ParsePathSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ParsePathSetError {}

/// The inverse of `Display`: `·` is the empty set; anything else is paths
/// separated by `,`, each `S` or a run of links (`L1`, `R+`, `D2+`), with
/// `?` after a possible one.  Only what `Display` writes is accepted — the
/// paths in set order, none absorbing another, each link in its shortest
/// form and no two adjacent links in one direction — so a text that parses
/// renders back to itself.  Anything else is an `Err`, never a panic: a
/// stored set is outside input.
impl FromStr for PathSet {
    type Err = ParsePathSetError;

    fn from_str(text: &str) -> Result<PathSet, ParsePathSetError> {
        if text == "·" {
            return Ok(PathSet::empty());
        }
        let mut set = PathSet::empty();
        let mut last: Option<Path> = None;
        for (count, text) in text.split(',').enumerate() {
            let path = parse_path(text)?;
            if last.is_some_and(|last| last >= path) {
                return Err(ParsePathSetError("paths out of set order"));
            }
            set.insert(path);
            if set.len() != count + 1 {
                return Err(ParsePathSetError("a path the set absorbs"));
            }
            last = Some(path);
        }
        Ok(set)
    }
}

/// One path of a set's text: `S` or one to [`MAX_LINKS`] links, then `?`
/// if it is possible.
fn parse_path(text: &str) -> Result<Path, ParsePathSetError> {
    let (mut rest, certainty) = match text.strip_suffix('?') {
        Some(body) => (body.as_bytes(), Certainty::Possible),
        None => (text.as_bytes(), Certainty::Definite),
    };
    match rest {
        b"S" => return Ok(Path::same(certainty)),
        [] => return Err(ParsePathSetError("an empty path")),
        _ => {}
    }
    let mut links = [Link::exact(Dir::Left, 1); MAX_LINKS];
    let mut len = 0;
    // What `Path::from_links` sums; bounded here so it cannot overflow.
    let mut edges = 0u32;
    while let Some((&letter, tail)) = rest.split_first() {
        let dir = match letter {
            b'L' => Dir::Left,
            b'R' => Dir::Right,
            b'D' => Dir::Down,
            _ => return Err(ParsePathSetError("an unknown direction")),
        };
        let digits = tail.iter().take_while(|b| b.is_ascii_digit()).count();
        let (count, tail) = tail.split_at(digits);
        let (exact, tail) = match tail.split_first() {
            Some((b'+', tail)) => (false, tail),
            _ => (true, tail),
        };
        let min = match (count, exact) {
            ([], false) => 1,
            ([], true) => return Err(ParsePathSetError("a link without a count")),
            ([b'0', ..], _) => return Err(ParsePathSetError("a zero or zero-padded count")),
            ([b'1'], false) => return Err(ParsePathSetError("`1+` is written `+`")),
            (count, _) => std::str::from_utf8(count)
                .ok()
                .and_then(|count| count.parse().ok())
                .ok_or(ParsePathSetError("a count too large"))?,
        };
        edges = edges
            .checked_add(min)
            .ok_or(ParsePathSetError("a path too long"))?;
        if len == MAX_LINKS || (len > 0 && links[len - 1].dir == dir) {
            return Err(ParsePathSetError("links a path would have merged"));
        }
        links[len] = Link { dir, min, exact };
        len += 1;
        rest = tail;
    }
    Ok(Path::from_links(links[..len].iter().copied(), certainty))
}

impl FromIterator<Path> for PathSet {
    fn from_iter<T: IntoIterator<Item = Path>>(iter: T) -> Self {
        PathSet::from_paths(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Dir;
    use crate::{at_least, exact, same};

    #[test]
    fn empty_set_properties() {
        let s = PathSet::empty();
        assert!(s.is_empty());
        assert!(!s.may_be_same());
        assert!(!s.may_be_descendant());
        assert_eq!(s.to_string(), "·");
    }

    #[test]
    fn insert_deduplicates_shapes() {
        let mut s = PathSet::empty();
        s.insert(exact(Dir::Left, 1).weakened());
        s.insert(exact(Dir::Left, 1));
        assert_eq!(s.len(), 1);
        assert!(s.has_definite());
    }

    #[test]
    fn insert_drops_covered_possible_paths() {
        let mut s = PathSet::empty();
        s.insert(at_least(Dir::Down, 1));
        s.insert(exact(Dir::Left, 2).weakened());
        assert_eq!(s.len(), 1, "{s}");
        // but a definite specific path is kept alongside a covering one
        let mut s = PathSet::empty();
        s.insert(at_least(Dir::Down, 1).weakened());
        s.insert(exact(Dir::Left, 2));
        assert_eq!(s.len(), 2, "{s}");
    }

    #[test]
    fn may_and_must_be_same() {
        let s = PathSet::singleton(same());
        assert!(s.may_be_same());
        assert!(s.must_be_same());
        let s = PathSet::singleton(same().weakened());
        assert!(s.may_be_same());
        assert!(!s.must_be_same());
        let s = PathSet::singleton(exact(Dir::Left, 1));
        assert!(!s.may_be_same());
        assert!(s.may_be_descendant());
    }

    #[test]
    fn union_accumulates() {
        let a = PathSet::singleton(exact(Dir::Left, 1));
        let b = PathSet::singleton(exact(Dir::Right, 1));
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn join_with_self_is_identity() {
        let s = PathSet::from_paths(vec![same(), at_least(Dir::Down, 1)]);
        assert_eq!(s.join(&s), s);
    }

    #[test]
    fn join_demotes_unmatched_definites() {
        // Figure 3 flavour: {S} ⊔ {L1} = {S?, L1?}
        let a = PathSet::singleton(same());
        let b = PathSet::singleton(exact(Dir::Left, 1));
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        assert!(!j.has_definite(), "{j}");
        assert!(j.may_be_same());
    }

    #[test]
    fn join_keeps_covered_definites() {
        // {D+} ⊔ {L2} : D+ stays definite (both branches guarantee a
        // downward path), L2 becomes possible.
        let a = PathSet::singleton(at_least(Dir::Down, 1));
        let b = PathSet::singleton(exact(Dir::Left, 2));
        let j = a.join(&b);
        let dplus = j
            .iter()
            .find(|p| p.to_string().starts_with("D+"))
            .expect("D+ present");
        assert!(dplus.is_definite(), "{j}");
        let l2 = j.iter().find(|p| p.to_string().starts_with("L2"));
        if let Some(l2) = l2 {
            assert!(!l2.is_definite());
        }
    }

    #[test]
    fn join_is_commutative() {
        let a = PathSet::from_paths(vec![same(), exact(Dir::Left, 2).weakened()]);
        let b = PathSet::from_paths(vec![at_least(Dir::Left, 1)]);
        assert_eq!(a.join(&b), b.join(&a));
    }

    #[test]
    fn concat_of_sets() {
        let a = PathSet::from_paths(vec![exact(Dir::Left, 1), exact(Dir::Right, 1)]);
        let b = PathSet::singleton(at_least(Dir::Down, 1));
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        assert!(c.iter().any(|p| p.to_string() == "L1D+"));
        assert!(c.iter().any(|p| p.to_string() == "R1D+"));
    }

    #[test]
    fn widening_bounds_cardinality() {
        let mut s = PathSet::empty();
        for i in 1..=10u32 {
            s.insert(exact(Dir::Left, i));
        }
        assert!(s.len() <= MAX_PATHS, "{s}");
        // the widened set must still cover each of the inserted paths
        for i in 1..=10u32 {
            assert!(
                s.iter().any(|p| p.covers(&exact(Dir::Left, i))),
                "{s} lost L{i}"
            );
        }
    }

    #[test]
    fn covers_set_containment() {
        let big = PathSet::from_paths(vec![same().weakened(), at_least(Dir::Down, 1).weakened()]);
        let small = PathSet::singleton(exact(Dir::Left, 3).weakened());
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(big.covers(&PathSet::empty()));
    }

    #[test]
    fn display_ordering_is_stable() {
        let s = PathSet::from_paths(vec![at_least(Dir::Down, 1).weakened(), same().weakened()]);
        let t = PathSet::from_paths(vec![same().weakened(), at_least(Dir::Down, 1).weakened()]);
        assert_eq!(s.to_string(), t.to_string());
        assert_eq!(s.to_string(), "S?,D+?");
    }

    #[test]
    fn every_form_of_the_text_reads_back_to_itself() {
        let texts = [
            "·",
            "S",
            "S?",
            "L1",
            "R+",
            "D2+",
            "D+?",
            "L12",
            "R1L1",
            "R1D+",
            "L1R2+D3L+?",
            "S?,D+?",
            "S,L1?",
            "L1,R1",
            "L2?,R1L1,D1R+?,D3+",
        ];
        for text in texts {
            let set: PathSet = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(set.to_string(), text);
        }
        let mixed = PathSet::from_paths([
            same().weakened(),
            exact(Dir::Left, 1),
            at_least(Dir::Down, 2),
        ]);
        assert_eq!(mixed.to_string().parse(), Ok(mixed));
        assert_eq!("·".parse(), Ok(PathSet::empty()));
    }

    #[test]
    fn anything_display_never_writes_is_refused() {
        for text in [
            "",
            "?",
            "??",
            "L1??",
            "X1",
            "l1",
            "S1",
            "SL1",
            "·,L1",
            "L1,",
            ",L1",
            "L1,,R1",
            "L",
            "L?",
            "R1D",
            "L0",
            "L0+",
            "L01",
            "L1+",
            "L+3",
            "L1L1",
            "L+L2",
            "L1R1L1R1L1",
            "L4294967296",
            "L4294967295R4294967295",
            "L1,L1",
            "L1?,L1",
            "R1,L1",
            "D+,L1?",
            "L1,R1,D1,L2,R2",
            " L1",
            "L1 ",
            "D+?,",
        ] {
            assert!(text.parse::<PathSet>().is_err(), "{text:?} parsed");
        }
    }
}
