//! The abstract state at a program point.
//!
//! A state bundles the path matrix over the live handles with the structural
//! classification of the heap the program has built so far.  Section 3.1 of
//! the paper distinguishes TREE (every node has at most one parent) from DAG
//! (some node has more than one parent, no directed cycle); anything worse is
//! "possibly cyclic" and none of the paper's guarantees apply.
//!
//! To detect transitions the state tracks two conservative node sets, keyed
//! by the handles that name them:
//!
//! * `attached` — handles whose node may already have a parent in the
//!   structure (it was loaded from a field, or stored into a field),
//! * `shared` — handles whose node may currently have **more than one**
//!   parent (storing an already-attached node creates the second parent; the
//!   classification drops back to TREE only when the set empties again, which
//!   reproduces the paper's "a tree may be changed temporarily into a DAG"
//!   observation for the node swap in `reverse`).
//!
//! `attached` is a [`HandleSet`]: interned [`Symbol`]s in symbol order, so
//! cloning a state (which every transfer does) copies one small vector.
//! `shared` stays a set of names: besides handles it holds the
//! `"<shared via callee>"` markers of call transfers, which are no handle
//! and would each add a never-freed name to the interner, and it is empty
//! in most states, where it costs no allocation either way.

use sil_pathmatrix::{intern, PathMatrix, Symbol};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// The structural classification of the heap at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StructureKind {
    /// Every node has at most one parent: the guarantees of §3.1 apply and
    /// all three parallelization methods are sound.
    Tree,
    /// Some node may have more than one parent (no cycle).  Disjointness of
    /// left/right subtrees no longer holds; only the "above/below" argument
    /// remains.
    PossiblyDag,
    /// A directed cycle may have been created; no structural guarantee holds.
    PossiblyCyclic,
}

impl StructureKind {
    /// The join (worst case) of two classifications.
    pub fn join(self, other: StructureKind) -> StructureKind {
        self.max(other)
    }

    /// Whether the TREE guarantees hold.
    pub fn is_tree(self) -> bool {
        self == StructureKind::Tree
    }

    /// The rendering used in reports and hashed by the analysis digest.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::Tree => "TREE",
            StructureKind::PossiblyDag => "DAG?",
            StructureKind::PossiblyCyclic => "CYCLE?",
        }
    }
}

impl fmt::Display for StructureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A warning produced by the structural verification part of the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureWarning {
    /// The procedure in which the offending statement occurs.
    pub procedure: String,
    /// A rendering of the offending statement.
    pub statement: String,
    /// The classification after the statement.
    pub kind: StructureKind,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for StructureWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: `{}` — {}",
            self.kind, self.procedure, self.statement, self.message
        )
    }
}

/// A set of handles, held as their interned symbols in symbol order.
///
/// Membership, insertion and removal are binary searches and the union and
/// inclusion tests are merge walks, none of which resolves a name.  Symbol
/// order is interning order, which differs between processes: whatever is
/// stored, sent or digested lists the set in name order
/// ([`HandleSet::extend_names`]).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct HandleSet(Vec<Symbol>);

impl HandleSet {
    /// The empty set.
    pub fn new() -> HandleSet {
        HandleSet(Vec::new())
    }

    /// Add `sym`; whether it was absent.
    pub fn insert(&mut self, sym: Symbol) -> bool {
        match self.0.binary_search(&sym) {
            Ok(_) => false,
            Err(slot) => {
                self.0.insert(slot, sym);
                true
            }
        }
    }

    /// Remove `sym`; whether it was present.
    pub fn remove(&mut self, sym: Symbol) -> bool {
        match self.0.binary_search(&sym) {
            Ok(slot) => {
                self.0.remove(slot);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether `sym` is in the set.
    pub fn contains(&self, sym: Symbol) -> bool {
        self.0.binary_search(&sym).is_ok()
    }

    /// Remove every handle.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The number of handles.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The handles in symbol order (interning order, process-local).
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.0.iter().copied()
    }

    /// Append the handles' names to `out` in name order (the order a
    /// `BTreeSet<String>` of them iterates in).  Resolving a symbol takes
    /// the interner's name-table lock, so this is for the edges that store,
    /// send or digest a state, not for the transfer functions.
    pub fn extend_names(&self, out: &mut Vec<&'static str>) {
        let start = out.len();
        out.extend(self.iter().map(Symbol::as_str));
        out[start..].sort_unstable();
    }

    /// The union of two sets, by one merge walk.
    pub fn union(&self, other: &HandleSet) -> HandleSet {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len().max(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        HandleSet(out)
    }

    /// Whether every handle of `self` is in `other`, by one merge walk.
    pub fn is_subset(&self, other: &HandleSet) -> bool {
        let mut theirs = other.0.iter();
        self.0.iter().all(|sym| theirs.any(|t| t == sym))
    }
}

impl FromIterator<Symbol> for HandleSet {
    fn from_iter<I: IntoIterator<Item = Symbol>>(iter: I) -> HandleSet {
        let mut symbols: Vec<Symbol> = iter.into_iter().collect();
        symbols.sort_unstable();
        symbols.dedup();
        HandleSet(symbols)
    }
}

/// Lists the names, in name order.
impl fmt::Debug for HandleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        self.extend_names(&mut names);
        f.debug_set().entries(names).finish()
    }
}

/// The abstract state: path matrix + structural classification + node
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractState {
    /// Relationships among the live handles.
    pub matrix: PathMatrix,
    /// Structural classification of the heap.
    pub structure: StructureKind,
    /// Handles whose node may already have a parent.
    pub attached: HandleSet,
    /// Handles whose node may have more than one parent, and a
    /// `"<shared via callee>"` marker for each callee that leaves the
    /// structure degraded (see the module docs).
    pub shared: BTreeSet<String>,
}

impl Default for AbstractState {
    fn default() -> Self {
        AbstractState::new()
    }
}

impl AbstractState {
    /// The initial state: no handles, a TREE (trivially), nothing attached.
    pub fn new() -> AbstractState {
        AbstractState {
            matrix: PathMatrix::new(),
            structure: StructureKind::Tree,
            attached: HandleSet::new(),
            shared: BTreeSet::new(),
        }
    }

    /// A state over the given handles, all mutually unrelated.
    pub fn with_handles<I, S>(handles: I) -> AbstractState
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        AbstractState {
            matrix: PathMatrix::with_handles(handles),
            ..AbstractState::new()
        }
    }

    /// The control-flow join of two states.
    pub fn join(&self, other: &AbstractState) -> AbstractState {
        AbstractState {
            matrix: self.matrix.join(&other.matrix),
            structure: self.structure.join(other.structure),
            attached: self.attached.union(&other.attached),
            shared: self.shared.union(&other.shared).cloned().collect(),
        }
    }

    /// Whether two states carry the same information (fixpoint test).
    pub fn same_as(&self, other: &AbstractState) -> bool {
        self.structure == other.structure
            && self.attached == other.attached
            && self.shared == other.shared
            && self.matrix.same_relations(&other.matrix)
    }

    /// Whether `self` is at least as conservative as `other` in every
    /// component, each ordered by its join: the structure by
    /// [`StructureKind::join`], the matrix entry-wise by
    /// [`sil_pathmatrix::PathSet::covers`] over both sides' handles (an
    /// entry absent on one side is empty there, and every set covers the
    /// empty one), and the node sets by inclusion.  Like `PathSet::covers`
    /// it compares path shapes only, not their certainty.
    pub fn covers(&self, other: &AbstractState) -> bool {
        let theirs = other.matrix.handles();
        self.structure.join(other.structure) == self.structure
            && other.attached.is_subset(&self.attached)
            && other.shared.is_subset(&self.shared)
            && other.matrix.indexed_relations().all(|(row, col, set)| {
                self.matrix
                    .get_sym(theirs[row as usize], theirs[col as usize])
                    .covers(set)
            })
    }

    /// Mark a handle's node as possibly having a parent.
    pub fn mark_attached(&mut self, name: &str) {
        self.attached.insert(intern::intern(name));
    }

    /// Mark a handle's node as fresh/detached (e.g. after `name := new()`).
    pub fn mark_detached(&mut self, name: &str) {
        if let Some(sym) = intern::lookup(name) {
            self.attached.remove(sym);
        }
        self.shared.remove(name);
    }

    /// Whether the node named by `name` may already have a parent.
    pub fn is_attached(&self, name: &str) -> bool {
        intern::lookup(name).is_some_and(|sym| self.attached.contains(sym))
    }

    /// Record that the handle aliases another (copies its attachment data).
    pub fn copy_node_flags(&mut self, dst: &str, src: &str) {
        if self.is_attached(src) {
            self.attached.insert(intern::intern(dst));
        } else if let Some(dst) = intern::lookup(dst) {
            self.attached.remove(dst);
        }
        if self.shared.contains(src) {
            self.shared.insert(dst.to_string());
        } else {
            self.shared.remove(dst);
        }
    }

    /// Remove a handle from the matrix and all bookkeeping.
    pub fn remove_handle(&mut self, name: &str) {
        self.matrix.remove_handle(name);
        self.mark_detached(name);
    }

    /// Rename a handle everywhere.
    pub fn rename_handle(&mut self, old: &str, new: &str) {
        self.matrix.rename_handle(old, new);
        if intern::lookup(old).is_some_and(|old| self.attached.remove(old)) {
            self.attached.insert(intern::intern(new));
        }
        if self.shared.remove(old) {
            self.shared.insert(new.to_string());
        }
    }

    /// Degrade the structure classification (never upgrades).
    pub fn degrade_structure(&mut self, kind: StructureKind) {
        self.structure = self.structure.join(kind);
    }

    /// Re-derive the classification from the `shared` set: when no node is
    /// known to be shared any more and no cycle was ever possible, the
    /// structure is a TREE again.
    pub fn reclassify_from_sharing(&mut self) {
        if self.structure == StructureKind::PossiblyDag && self.shared.is_empty() {
            self.structure = StructureKind::Tree;
        }
    }

    /// A short single-line summary used in reports.
    pub fn summary(&self) -> String {
        format!(
            "{} | {} handles, {} relations",
            self.structure,
            self.matrix.handles().len(),
            self.matrix.relation_count()
        )
    }
}

impl fmt::Display for AbstractState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "structure: {}", self.structure)?;
        write!(f, "{}", self.matrix.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sil_pathmatrix::{exact, Dir, PathSet};

    #[test]
    fn structure_join_is_worst_case() {
        use StructureKind::*;
        assert_eq!(Tree.join(Tree), Tree);
        assert_eq!(Tree.join(PossiblyDag), PossiblyDag);
        assert_eq!(PossiblyDag.join(PossiblyCyclic), PossiblyCyclic);
        assert_eq!(PossiblyCyclic.join(Tree), PossiblyCyclic);
        assert!(Tree.is_tree());
        assert!(!PossiblyDag.is_tree());
    }

    #[test]
    fn state_join_merges_everything() {
        let mut a = AbstractState::with_handles(["x", "y"]);
        a.matrix
            .set("x", "y", PathSet::singleton(exact(Dir::Left, 1)));
        a.mark_attached("y");
        let mut b = AbstractState::with_handles(["x", "y"]);
        b.degrade_structure(StructureKind::PossiblyDag);
        b.mark_attached("x");
        let j = a.join(&b);
        assert_eq!(j.structure, StructureKind::PossiblyDag);
        assert!(j.is_attached("x") && j.is_attached("y"));
        assert!(!j.matrix.get("x", "y").is_empty());
        assert!(!j.matrix.get("x", "y").has_definite());
    }

    #[test]
    fn same_as_detects_differences() {
        let a = AbstractState::with_handles(["x"]);
        let mut b = AbstractState::with_handles(["x"]);
        assert!(a.same_as(&b));
        b.mark_attached("x");
        assert!(!a.same_as(&b));
    }

    #[test]
    fn attach_detach_and_copy_flags() {
        let mut s = AbstractState::with_handles(["a", "b"]);
        s.mark_attached("a");
        assert!(s.is_attached("a"));
        s.copy_node_flags("b", "a");
        assert!(s.is_attached("b"));
        s.mark_detached("a");
        assert!(!s.is_attached("a"));
        s.copy_node_flags("b", "a");
        assert!(!s.is_attached("b"));
    }

    #[test]
    fn rename_handle_moves_flags() {
        let mut s = AbstractState::with_handles(["a"]);
        s.mark_attached("a");
        s.shared.insert("a".to_string());
        s.rename_handle("a", "z");
        assert!(s.is_attached("z"));
        assert!(s.shared.contains("z"));
        assert!(!s.is_attached("a"));
        assert!(s.matrix.contains("z"));
    }

    #[test]
    fn handle_sets_are_sorted_sets_listed_by_name() {
        // Interned in reverse name order, so symbol order is not name order.
        let [z, m, a] = ["hs-z", "hs-m", "hs-a"].map(intern::intern);
        let mut set = HandleSet::new();
        assert!(set.insert(z) && set.insert(a) && !set.insert(z));
        assert!(set.contains(a) && !set.contains(m));
        let other: HandleSet = [m, a, m].into_iter().collect();
        assert_eq!(other.len(), 2);
        let union = set.union(&other);
        assert_eq!(union, [a, m, z].into_iter().collect());
        assert!(set.is_subset(&union) && other.is_subset(&union));
        assert!(!union.is_subset(&set));
        let mut names = vec!["first"];
        union.extend_names(&mut names);
        assert_eq!(names, ["first", "hs-a", "hs-m", "hs-z"]);
        assert_eq!(format!("{union:?}"), r#"{"hs-a", "hs-m", "hs-z"}"#);
        assert!(set.remove(z) && !set.remove(z));
        assert_eq!(set.iter().collect::<Vec<_>>(), [a]);
    }

    #[test]
    fn covers_orders_every_component() {
        let mut low = AbstractState::with_handles(["x", "y"]);
        low.matrix
            .set("x", "y", PathSet::singleton(exact(Dir::Left, 1)));
        assert!(low.covers(&low));
        // A handle the other side lacks relates to nothing there.
        let mut wider = low.clone();
        wider.matrix.add_handle("w");
        assert!(low.covers(&wider) && wider.covers(&low));
        let mut high = low.join(&AbstractState::with_handles(["x", "y"]));
        assert!(high.covers(&low), "a weakened path still covers its shape");
        high.mark_attached("x");
        high.shared.insert("y".to_string());
        high.degrade_structure(StructureKind::PossiblyDag);
        assert!(high.covers(&low) && !low.covers(&high));
        for drop in 0..3 {
            let mut less = high.clone();
            match drop {
                0 => less.structure = StructureKind::Tree,
                1 => less.attached.clear(),
                _ => less.shared.clear(),
            }
            assert!(
                high.covers(&less) && !less.covers(&high),
                "component {drop}"
            );
        }
        let mut other_path = low.clone();
        other_path
            .matrix
            .set("x", "y", PathSet::singleton(exact(Dir::Right, 1)));
        assert!(!low.covers(&other_path) && !other_path.covers(&low));
    }

    #[test]
    fn reclassify_recovers_tree_only_from_dag() {
        let mut s = AbstractState::new();
        s.degrade_structure(StructureKind::PossiblyDag);
        s.reclassify_from_sharing();
        assert_eq!(s.structure, StructureKind::Tree);

        let mut s = AbstractState::new();
        s.degrade_structure(StructureKind::PossiblyCyclic);
        s.reclassify_from_sharing();
        assert_eq!(s.structure, StructureKind::PossiblyCyclic);

        let mut s = AbstractState::new();
        s.degrade_structure(StructureKind::PossiblyDag);
        s.shared.insert("x".to_string());
        s.reclassify_from_sharing();
        assert_eq!(s.structure, StructureKind::PossiblyDag);
    }

    #[test]
    fn display_contains_structure_and_matrix() {
        let mut s = AbstractState::with_handles(["root", "lside"]);
        s.matrix
            .set("root", "lside", PathSet::singleton(exact(Dir::Left, 1)));
        let rendered = s.to_string();
        assert!(rendered.contains("TREE"));
        assert!(rendered.contains("L1"));
        assert!(s.summary().contains("TREE"));
    }
}
