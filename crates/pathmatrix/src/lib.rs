//! # sil-pathmatrix
//!
//! Path expressions and path matrices from Section 4 of Hendren & Nicolau,
//! *Parallelizing Programs with Recursive Data Structures* (1989).
//!
//! The analysis estimates, for every ordered pair of live handles `(a, b)`,
//! the set of directed paths by which the node named `b` can be reached from
//! the node named `a`.  A path is either `S` — the two handles name the same
//! node — or a non-empty sequence of *links*:
//!
//! | link  | meaning                      |
//! |-------|------------------------------|
//! | `L^i` | exactly `i` left edges       |
//! | `L+`  | one or more left edges       |
//! | `R^i` | exactly `i` right edges      |
//! | `R+`  | one or more right edges      |
//! | `D^i` | exactly `i` down edges (left or right) |
//! | `D+`  | one or more down edges       |
//!
//! Every path is *definite* (guaranteed to exist) or *possible* (may exist,
//! rendered with a trailing `?`).  The set of paths for a pair is a
//! *covering* over-approximation: any actual path in the heap between the two
//! nodes is described by some member of the set; an empty set therefore
//! proves the two handles are unrelated — the key fact the parallelizer
//! exploits.
//!
//! The module layout mirrors the formalism:
//!
//! * [`mod@intern`] — the global handle-name interner mapping names to dense
//!   [`Symbol`] ids,
//! * [`link`] — directions and length-abstracted links,
//! * [`path`] — paths, certainty, concatenation, first-link stripping,
//!   coverage (subsumption) and generalisation (widening); a path is an
//!   inline, fixed-capacity array of links (`Copy`, no heap),
//! * [`pathset`] — canonical bounded sets of paths, also inline and `Copy`,
//! * [`matrix`] — the path matrix indexed by interned handles, with the
//!   control-flow `merge`, equality for fixpoint detection, and the tabular
//!   rendering used to reproduce the paper's figures.

#![forbid(unsafe_code)]

pub mod intern;
pub mod link;
pub mod matrix;
pub mod path;
pub mod pathset;

pub use intern::{intern, lookup, matrix_bytes_high_water, symbol_count, Symbol};
pub use link::{Dir, Link};
pub use matrix::PathMatrix;
pub use path::{Certainty, Path};
pub use pathset::{ParsePathSetError, PathSet};

/// Convenience constructor: the definite path `S` (same node).
pub fn same() -> Path {
    Path::same(Certainty::Definite)
}

/// Convenience constructor: a definite single-link path of exactly `n` edges
/// in direction `dir`.
pub fn exact(dir: Dir, n: u32) -> Path {
    Path::from_link(Link::exact(dir, n), Certainty::Definite)
}

/// Convenience constructor: a definite single-link path of `n`-or-more edges
/// in direction `dir`.
pub fn at_least(dir: Dir, n: u32) -> Path {
    Path::from_link(Link::at_least(dir, n), Certainty::Definite)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_constructors() {
        assert_eq!(same().to_string(), "S");
        assert_eq!(exact(Dir::Left, 1).to_string(), "L1");
        assert_eq!(at_least(Dir::Down, 1).to_string(), "D+");
        assert_eq!(at_least(Dir::Right, 3).to_string(), "R3+");
    }
}
