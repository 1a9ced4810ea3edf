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

use sil_pathmatrix::PathMatrix;
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

/// The abstract state: path matrix + structural classification + node
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractState {
    /// Relationships among the live handles.
    pub matrix: PathMatrix,
    /// Structural classification of the heap.
    pub structure: StructureKind,
    /// Handles whose node may already have a parent.
    pub attached: BTreeSet<String>,
    /// Handles whose node may have more than one parent.
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
            attached: BTreeSet::new(),
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
            attached: self.attached.union(&other.attached).cloned().collect(),
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

    /// Mark a handle's node as possibly having a parent.
    pub fn mark_attached(&mut self, name: &str) {
        self.attached.insert(name.to_string());
    }

    /// Mark a handle's node as fresh/detached (e.g. after `name := new()`).
    pub fn mark_detached(&mut self, name: &str) {
        self.attached.remove(name);
        self.shared.remove(name);
    }

    /// Whether the node named by `name` may already have a parent.
    pub fn is_attached(&self, name: &str) -> bool {
        self.attached.contains(name)
    }

    /// Record that the handle aliases another (copies its attachment data).
    pub fn copy_node_flags(&mut self, dst: &str, src: &str) {
        if self.attached.contains(src) {
            self.attached.insert(dst.to_string());
        } else {
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
        self.attached.remove(name);
        self.shared.remove(name);
    }

    /// Rename a handle everywhere.
    pub fn rename_handle(&mut self, old: &str, new: &str) {
        self.matrix.rename_handle(old, new);
        if self.attached.remove(old) {
            self.attached.insert(new.to_string());
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
