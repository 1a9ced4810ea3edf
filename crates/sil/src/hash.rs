//! Stable, content-addressed fingerprints of SIL ASTs.
//!
//! The engine memoizes per-procedure summaries and whole-program analysis
//! results, keyed by the *content* of the (normalized) AST.  The key must be
//! stable across processes and runs — `std::collections::hash_map`'s
//! randomized hasher cannot be used — so this module provides a plain
//! FNV-1a 64-bit hasher and fingerprints computed over the canonical form of
//! the AST, plus [`word_hash`], a faster hash for keys that never leave
//! memory.
//!
//! The canonical form is the pretty-printed rendering of [`crate::pretty`]:
//! the workspace already relies on pretty-printing being a total, faithful
//! rendering (the parallelizer's output is pretty-printed and re-parsed by
//! the verification tests), so two ASTs render identically iff they are the
//! same program modulo spans — exactly the equivalence a content-addressed
//! cache wants.  Spans, comments and incidental whitespace of the original
//! source never reach the fingerprint.  A program's rendering is its
//! name line followed by each procedure's rendering, so [`fingerprints`]
//! renders it once and hashes the program and every procedure from that one
//! buffer.

use crate::ast::{Procedure, Program};
use crate::pretty::{pretty_procedure, pretty_program, write_program};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a over a byte slice.  A `const fn`, so a build can hash a file it
/// includes at compile time.
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    hash
}

/// A 64-bit hash of a byte slice that reads it a word (8 bytes) per step:
/// seeded with the length, each word folded in by a multiply and a
/// rotate, finished with splitmix64's avalanche.  About eight times fewer
/// dependent steps than [`fnv1a`], for keys that live in memory only —
/// nothing stored or sent may depend on its value.
pub fn word_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let fold = |hash: u64, word: u64| (hash ^ word).wrapping_mul(K).rotate_left(29);
    let mut words = bytes.chunks_exact(8);
    let mut hash = (bytes.len() as u64).wrapping_mul(K);
    for word in &mut words {
        hash = fold(hash, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        hash = fold(hash, u64::from_le_bytes(last));
    }
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// An incremental FNV-1a hasher with length-prefixed field framing, so that
/// `("ab", "c")` and `("a", "bc")` hash differently.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_u64(bytes.len() as u64);
        for b in bytes {
            self.state ^= u64::from(*b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes())
    }

    pub fn write_u64(&mut self, value: u64) -> &mut Self {
        for b in value.to_le_bytes() {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn write_usize(&mut self, value: usize) -> &mut Self {
        self.write_u64(value as u64)
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a of `text` framed under `tag`, as every fingerprint is.
fn tagged(tag: &str, text: &str) -> u64 {
    StableHasher::new().write_str(tag).write_str(text).finish()
}

/// The stable fingerprint of one procedure: a pure function of its
/// pretty-printed (canonical) form.
pub fn procedure_fingerprint(proc: &Procedure) -> u64 {
    tagged("sil-procedure-v1", &pretty_procedure(proc))
}

/// The stable fingerprint of a whole program, covering its name and every
/// procedure in declaration order.
pub fn program_fingerprint(program: &Program) -> u64 {
    tagged("sil-program-v1", &pretty_program(program))
}

/// Everything fingerprinted from one rendering of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprints {
    /// [`program_fingerprint`].
    pub program: u64,
    /// Byte length of the canonical rendering `program` hashes, so a caller
    /// can bound what it keeps beside a fingerprint by the program's size.
    pub canonical_len: usize,
    /// [`procedure_fingerprint`] of every procedure, in declaration order.
    pub procedures: Vec<u64>,
}

/// [`program_fingerprint`], the canonical length and every
/// [`procedure_fingerprint`], from one rendering.
pub fn fingerprints(program: &Program) -> Fingerprints {
    let mut canonical = String::new();
    let mut procedures = Vec::with_capacity(program.procedures.len());
    write_program(&mut canonical, program, |_, text| {
        procedures.push(tagged("sil-procedure-v1", text));
    });
    Fingerprints {
        program: tagged("sil-program-v1", &canonical),
        canonical_len: canonical.len(),
        procedures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    const SRC: &str = r#"
program t
procedure main()
  a, b: handle; x: int
begin
  a := new();
  b := a.left;
  x := 3
end
"#;

    #[test]
    fn fingerprints_are_deterministic() {
        let p1 = parse_program(SRC).unwrap();
        let p2 = parse_program(SRC).unwrap();
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
        assert_eq!(
            procedure_fingerprint(&p1.procedures[0]),
            procedure_fingerprint(&p2.procedures[0])
        );
    }

    #[test]
    fn fingerprints_ignore_incidental_whitespace() {
        let reformatted = SRC.replace("  a, b: handle", "  a,    b: handle");
        let p1 = parse_program(SRC).unwrap();
        let p2 = parse_program(&reformatted).unwrap();
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
        let all = fingerprints(&p2);
        assert_eq!(all.program, program_fingerprint(&p1));
        assert_eq!(all.canonical_len, pretty_program(&p1).len());
        assert_eq!(all.procedures, [procedure_fingerprint(&p1.procedures[0])]);
    }

    #[test]
    fn content_changes_change_the_fingerprint() {
        let changed = SRC.replace("x := 3", "x := 4");
        let p1 = parse_program(SRC).unwrap();
        let p2 = parse_program(&changed).unwrap();
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2));
        assert_ne!(
            procedure_fingerprint(&p1.procedures[0]),
            procedure_fingerprint(&p2.procedures[0])
        );
    }

    #[test]
    fn framing_distinguishes_field_boundaries() {
        let mut a = StableHasher::new();
        a.write_str("ab").write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_hash_sees_every_byte_and_the_length() {
        let text = "program t procedure main() begin end".repeat(3);
        let bytes = text.as_bytes();
        let mut seen = std::collections::HashSet::new();
        // Every prefix (so every tail length), and every one-byte change.
        for len in 0..=bytes.len() {
            assert!(seen.insert(word_hash(&bytes[..len])), "prefix {len}");
        }
        for at in 0..bytes.len() {
            let mut changed = bytes.to_vec();
            changed[at] ^= 1;
            assert!(seen.insert(word_hash(&changed)), "byte {at}");
        }
        // Zero padding is not the same text: the length seeds the hash.
        assert_ne!(word_hash(b"ab"), word_hash(b"ab\0"));
        assert_eq!(word_hash(bytes), word_hash(text.clone().as_bytes()));
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
