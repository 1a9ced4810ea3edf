//! A global, lock-striped string interner for handle names.
//!
//! The analysis spends its time comparing and hashing handle names; interning
//! maps every distinct name to a dense `u32` [`Symbol`] once, after which all
//! comparisons are integer compares and matrices can be indexed instead of
//! keyed by string pairs.  Names are resolved back to `&str` only at the
//! rendering/serialization edges.
//!
//! The table is append-only and process-global: interned strings are leaked
//! (names are program identifiers — a small, bounded set per workload).  The
//! read-mostly fast path takes one shared lock on one of `STRIPES` stripes;
//! the miss path takes the stripe's write lock plus the global name table's
//! write lock, once per distinct name for the lifetime of the process.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// A dense id for an interned string.  `Symbol`s are cheap to copy, compare
/// and hash; two symbols are equal iff the strings they intern are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The interned string.  `'static` because interned names are leaked.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self)
    }

    /// The dense index of this symbol (0-based, in interning order).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of hash-partitioned stripes; a small power of two so the stripe
/// pick is a mask.
const STRIPES: usize = 16;

struct Interner {
    /// `name -> symbol`, partitioned by name hash.
    stripes: [RwLock<HashMap<&'static str, Symbol>>; STRIPES],
    /// `symbol.index() -> name`, append-only.
    names: RwLock<Vec<&'static str>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        stripes: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        names: RwLock::new(Vec::new()),
    })
}

/// FNV-1a, used only to pick a stripe (stable, dependency-free).
fn stripe_of(s: &str) -> usize {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h as usize) & (STRIPES - 1)
}

impl Interner {
    fn intern(&self, s: &str) -> Symbol {
        let stripe = &self.stripes[stripe_of(s)];
        if let Some(&sym) = stripe.read().expect("interner stripe").get(s) {
            return sym;
        }
        let mut map = stripe.write().expect("interner stripe");
        // Re-check: another thread may have interned `s` while we waited.
        if let Some(&sym) = map.get(s) {
            return sym;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let mut names = self.names.write().expect("interner names");
        let sym = Symbol(u32::try_from(names.len()).expect("interner overflow"));
        names.push(leaked);
        drop(names);
        map.insert(leaked, sym);
        sym
    }

    fn lookup(&self, s: &str) -> Option<Symbol> {
        self.stripes[stripe_of(s)]
            .read()
            .expect("interner stripe")
            .get(s)
            .copied()
    }

    fn resolve(&self, sym: Symbol) -> &'static str {
        self.names.read().expect("interner names")[sym.0 as usize]
    }
}

/// Intern `s`, returning its symbol (inserting it on first sight).
pub fn intern(s: &str) -> Symbol {
    interner().intern(s)
}

/// The symbol of `s` if it has ever been interned.  Read-only probes (matrix
/// lookups for names the matrix cannot contain) use this so arbitrary query
/// strings do not grow the global table.
pub fn lookup(s: &str) -> Option<Symbol> {
    interner().lookup(s)
}

/// Number of distinct interned strings (the `analysis.interned_symbols`
/// gauge).
pub fn symbol_count() -> usize {
    interner().names.read().expect("interner names").len()
}

/// High-water mark of the largest single path-matrix footprint observed, in
/// bytes (the `analysis.matrix_bytes` gauge).  Updated by
/// [`crate::PathMatrix::note_footprint`].
static MATRIX_BYTES_HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

pub(crate) fn note_matrix_bytes(bytes: usize) {
    MATRIX_BYTES_HIGH_WATER.fetch_max(bytes, Ordering::Relaxed);
}

/// The current `analysis.matrix_bytes` high-water value.
pub fn matrix_bytes_high_water() -> usize {
    MATRIX_BYTES_HIGH_WATER.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let a = intern("intern-test-a");
        let b = intern("intern-test-b");
        assert_ne!(a, b);
        assert_eq!(a, intern("intern-test-a"));
        assert_eq!(a.as_str(), "intern-test-a");
        assert_eq!(b.as_str(), "intern-test-b");
    }

    #[test]
    fn lookup_does_not_insert() {
        // Had the first lookup inserted the name, the second would find it.
        // (Sibling tests intern concurrently, so `symbol_count()` cannot be
        // compared across the call.)
        assert!(lookup("intern-test-never-inserted-xyzzy").is_none());
        assert!(lookup("intern-test-never-inserted-xyzzy").is_none());
        let sym = intern("intern-test-lookup-hit");
        assert_eq!(lookup("intern-test-lookup-hit"), Some(sym));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| intern(&format!("intern-race-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        for (i, sym) in results[0].iter().enumerate() {
            assert_eq!(sym.as_str(), format!("intern-race-{i}"));
        }
    }
}
