//! # sil-lang
//!
//! The **SIL** language substrate from Hendren & Nicolau, *Parallelizing
//! Programs with Recursive Data Structures* (1989).
//!
//! SIL is a small, statically scoped imperative language with call-by-value
//! semantics and exactly two types: `int` and `handle`.  A handle names a
//! binary-tree node: `type handle = Nil | {value: int; left: handle; right: handle}`.
//!
//! This crate provides everything a downstream analysis or execution engine
//! needs in order to work with SIL programs:
//!
//! * [`lexer`] / [`parser`] — a hand-written lexer and recursive-descent
//!   parser for the concrete syntax of Figure 1 of the paper (extended with
//!   the parallel composition operator `||` that appears in the paper's
//!   *output* programs, Figure 8),
//! * [`ast`] — the abstract syntax tree,
//! * [`types`] — a type checker producing per-procedure symbol tables,
//! * [`normalize`] — lowering of compound handle expressions
//!   (`a.left.right := b.right`) into the *basic handle statements* the
//!   analysis of Section 4 is defined over,
//! * [`basic`] — a classification view of normalized statements,
//! * [`live`] — live-handle analysis ("a handle h is live at a point p if
//!   there is some execution path starting at p that uses h"),
//! * [`pretty`] — a pretty printer for both sequential and parallel programs,
//! * [`builder`] — a programmatic AST construction API used by the workload
//!   generators,
//! * [`visit`] — generic AST visitors,
//! * [`hash`] — stable content-addressed fingerprints of programs and
//!   procedures, used by the analysis engine's memoization caches.
//!
//! ## Quick example
//!
//! ```
//! use sil_lang::parse_program;
//!
//! let src = r#"
//! program tiny
//! procedure main()
//!   t: handle; l: handle
//! begin
//!   t := new();
//!   l := t.left
//! end
//! "#;
//! let program = parse_program(src).expect("parses");
//! assert_eq!(program.name, "tiny");
//! assert_eq!(program.procedures.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod basic;
pub mod builder;
pub mod error;
pub mod hash;
pub mod lexer;
pub mod live;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod testsrc;
pub mod token;
pub mod types;
pub mod visit;

pub use ast::{
    BinOp, Decl, Expr, Field, HandlePath, Ident, LValue, Procedure, Program, Rhs, Stmt, TypeName,
    UnOp,
};
pub use basic::BasicStmt;
pub use error::{Diagnostic, SilError};
pub use hash::{procedure_fingerprint, program_fingerprint, StableHasher};
pub use normalize::normalize_program;
pub use parser::{parse_expr, parse_program, parse_stmt};
pub use pretty::{pretty_program, pretty_stmt};
pub use span::Span;
pub use types::{check_program, ProcSignature, ProgramTypes, Type};

/// Parse, type check and normalize a SIL source string in one call.
///
/// This is the entry point most downstream crates (analysis, parallelizer,
/// runtime) use: the returned program contains only *basic* handle statements
/// and has passed the type checker.
pub fn frontend(src: &str) -> Result<(Program, ProgramTypes), SilError> {
    let program = parse_program(src)?;
    let normalized = normalize_program(&program);
    let types = check_program(&normalized)?;
    Ok((normalized, types))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_roundtrip() {
        let src = r#"
program t
procedure main()
  a: handle; b: handle; x: int
begin
  a := new();
  b := new();
  a.left := b;
  x := a.value
end
"#;
        let (prog, types) = frontend(src).unwrap();
        assert_eq!(prog.procedures.len(), 1);
        let main = &prog.procedures[0];
        assert_eq!(main.name, "main");
        assert!(types.proc("main").is_some());
    }

    #[test]
    fn frontend_rejects_type_errors() {
        let src = r#"
program t
procedure main()
  a: handle; x: int
begin
  x := a
end
"#;
        assert!(frontend(src).is_err());
    }
}
