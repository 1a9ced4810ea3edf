//! A pretty printer for SIL programs.
//!
//! The output uses the same concrete syntax accepted by [`crate::parser`]
//! (round-tripping is tested), and prints parallel statements in the
//! `s1 || s2 || ... || sn` notation of the paper's Figure 8.
//!
//! One renderer writes every rendering straight into a caller's buffer,
//! with no intermediate `String` per node; [`pretty_program`],
//! [`pretty_procedure`], [`pretty_stmt`] and [`pretty_expr`] wrap it.
//! Rendering a program also reports where each procedure's text lies in
//! the buffer, so [`crate::hash::fingerprints`] hashes a program and all
//! its procedures from one rendering.

use crate::ast::*;
use std::fmt::Write as _;
use std::ops::Range;

/// Render a whole program.
pub fn pretty_program(program: &Program) -> String {
    rendered(|out| write_program(out, program, |_, _| {}))
}

/// Render a single procedure or function.
pub fn pretty_procedure(proc: &Procedure) -> String {
    rendered(|out| write_procedure(out, proc))
}

/// Render a statement (top-level helper used in tests and reports).
pub fn pretty_stmt(stmt: &Stmt) -> String {
    rendered(|out| write_stmt(out, stmt))
}

/// Render an expression.
pub fn pretty_expr(expr: &Expr) -> String {
    rendered(|out| write_expr(out, expr, 0))
}

fn rendered(write: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    write(&mut out);
    out
}

/// Append [`pretty_program`]'s rendering of `program` to `out`.  After
/// each procedure is written, `procedure` is called with the byte range of
/// its text in `out` and that text — what [`pretty_procedure`] returns for
/// it — in declaration order.
pub(crate) fn write_program(
    out: &mut String,
    program: &Program,
    mut procedure: impl FnMut(Range<usize>, &str),
) {
    out.extend(["program ", &program.name, "\n"]);
    for proc in &program.procedures {
        out.push('\n');
        let start = out.len();
        write_procedure(out, proc);
        procedure(start..out.len(), &out[start..]);
    }
}

fn write_procedure(out: &mut String, proc: &Procedure) {
    let keyword = if proc.is_function() {
        "function "
    } else {
        "procedure "
    };
    out.extend([keyword, &proc.name, "("]);
    write_decls(out, &proc.params);
    let rt = proc.return_type.map_or("", TypeName::as_str);
    out.extend([")", if rt.is_empty() { "" } else { " " }, rt, "\n"]);
    if !proc.locals.is_empty() {
        out.push_str("  ");
        write_decls(out, &proc.locals);
        out.push('\n');
    }
    write_stmt_at(out, &proc.body, 0);
    out.push('\n');
    if let Some(rv) = &proc.return_var {
        out.extend(["return (", rv, ")\n"]);
    }
}

/// Append [`pretty_stmt`]'s rendering of `stmt` to `out`.
pub fn write_stmt(out: &mut String, stmt: &Stmt) {
    write_stmt_at(out, stmt, 0);
}

/// Consecutive declarations of one type form a group: `a, b: handle; n: int`.
fn write_decls(out: &mut String, decls: &[Decl]) {
    for (i, d) in decls.iter().enumerate() {
        out.push_str(&d.name);
        match decls.get(i + 1) {
            Some(next) if next.ty == d.ty => out.push_str(", "),
            next => out.extend([": ", d.ty.as_str(), if next.is_some() { "; " } else { "" }]),
        }
    }
}

fn write_stmt_at(out: &mut String, stmt: &Stmt, level: usize) {
    out.extend(std::iter::repeat_n("  ", level));
    match stmt {
        Stmt::Assign { lhs, rhs, .. } => {
            let (path, field) = match lhs {
                LValue::Var(v) => {
                    out.push_str(v);
                    (None, "")
                }
                LValue::Field(p, field) => (Some(p), field.as_str()),
                LValue::Value(p) => (Some(p), "value"),
            };
            if let Some(p) = path {
                write_path(out, p);
                out.extend([".", field]);
            }
            out.push_str(" := ");
            match rhs {
                Rhs::New => out.push_str("new()"),
                Rhs::Expr(e) => write_expr(out, e, 0),
                Rhs::Call(name, args) => write_call(out, name, args),
            }
        }
        Stmt::Call { proc, args, .. } => write_call(out, proc, args),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            out.push_str("if ");
            write_expr(out, cond, 0);
            out.push_str(" then\n");
            write_stmt_at(out, then_branch, level + 1);
            if let Some(e) = else_branch {
                out.push('\n');
                out.extend(std::iter::repeat_n("  ", level).chain(["else\n"]));
                write_stmt_at(out, e, level + 1);
            }
        }
        Stmt::While { cond, body, .. } => {
            out.push_str("while ");
            write_expr(out, cond, 0);
            out.push_str(" do\n");
            write_stmt_at(out, body, level + 1);
        }
        Stmt::Block { stmts, .. } => {
            out.push_str("begin\n");
            for (i, st) in stmts.iter().enumerate() {
                write_stmt_at(out, st, level + 1);
                out.push_str(if i + 1 < stmts.len() { ";\n" } else { "\n" });
            }
            out.extend(std::iter::repeat_n("  ", level).chain(["end"]));
        }
        Stmt::Par { arms, .. } => {
            for (i, arm) in arms.iter().enumerate() {
                out.push_str(if i > 0 { " || " } else { "" });
                write_stmt_at(out, arm, 0);
            }
        }
    }
}

fn write_path(out: &mut String, path: &HandlePath) {
    out.push_str(&path.base);
    for field in &path.fields {
        out.extend([".", field.as_str()]);
    }
}

fn write_call(out: &mut String, name: &str, args: &[Expr]) {
    out.extend([name, "("]);
    for (i, arg) in args.iter().enumerate() {
        out.push_str(if i > 0 { ", " } else { "" });
        write_expr(out, arg, 0);
    }
    out.push(')');
}

/// Operator precedence used to insert parentheses only where needed.
fn precedence(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div => 5,
    }
}

fn write_expr(out: &mut String, expr: &Expr, parent_prec: u8) {
    match expr {
        Expr::Int(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
        Expr::Nil => out.push_str("nil"),
        Expr::Path(p) => write_path(out, p),
        Expr::Value(p) => {
            write_path(out, p);
            out.push_str(".value");
        }
        Expr::Unary(op, inner) => {
            out.push_str(if *op == UnOp::Neg { "-" } else { "not " });
            write_expr(out, inner, 6);
        }
        Expr::Binary(op, lhs, rhs) => {
            let prec = precedence(*op);
            out.push_str(if prec < parent_prec { "(" } else { "" });
            write_expr(out, lhs, prec);
            out.extend([" ", op.as_str(), " "]);
            write_expr(out, rhs, prec + 1);
            out.push_str(if prec < parent_prec { ")" } else { "" });
        }
    }
}

/// The `format!` renderer the one above replaced, kept as the oracle it
/// must match byte for byte.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::ast::*;
    /// Render a whole program.
    pub fn pretty_program(program: &Program) -> String {
        let mut out = String::new();
        out.push_str(&format!("program {}\n", program.name));
        for proc in &program.procedures {
            out.push('\n');
            out.push_str(&pretty_procedure(proc));
        }
        out
    }

    /// Render a single procedure or function.
    pub fn pretty_procedure(proc: &Procedure) -> String {
        let mut out = String::new();
        let keyword = if proc.is_function() {
            "function"
        } else {
            "procedure"
        };
        out.push_str(&format!("{keyword} {}(", proc.name));
        out.push_str(&render_decls(&proc.params));
        out.push(')');
        if let Some(rt) = proc.return_type {
            out.push_str(&format!(" {rt}"));
        }
        out.push('\n');
        if !proc.locals.is_empty() {
            out.push_str(&format!("  {}\n", render_decls(&proc.locals)));
        }
        out.push_str(&render_stmt_at(&proc.body, 0, true));
        out.push('\n');
        if let Some(rv) = &proc.return_var {
            out.push_str(&format!("return ({rv})\n"));
        }
        out
    }

    /// Render a statement (top-level helper used in tests and reports).
    pub fn pretty_stmt(stmt: &Stmt) -> String {
        render_stmt_at(stmt, 0, false)
    }

    /// Render an expression.
    pub fn pretty_expr(expr: &Expr) -> String {
        render_expr(expr, 0)
    }

    fn render_decls(decls: &[Decl]) -> String {
        // Group consecutive declarations of the same type: `a, b: handle; n: int`.
        let mut groups: Vec<(Vec<&str>, TypeName)> = Vec::new();
        for d in decls {
            match groups.last_mut() {
                Some((names, ty)) if *ty == d.ty => names.push(&d.name),
                _ => groups.push((vec![&d.name], d.ty)),
            }
        }
        groups
            .iter()
            .map(|(names, ty)| format!("{}: {}", names.join(", "), ty))
            .collect::<Vec<_>>()
            .join("; ")
    }

    fn indent(level: usize) -> String {
        "  ".repeat(level)
    }

    fn render_stmt_at(stmt: &Stmt, level: usize, _top: bool) -> String {
        let pad = indent(level);
        match stmt {
            Stmt::Assign { lhs, rhs, .. } => format!("{pad}{lhs} := {}", render_rhs(rhs)),
            Stmt::Call { proc, args, .. } => {
                let args = args
                    .iter()
                    .map(|a| render_expr(a, 0))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{pad}{proc}({args})")
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let mut s = format!("{pad}if {} then\n", render_expr(cond, 0));
                s.push_str(&render_stmt_at(then_branch, level + 1, false));
                if let Some(e) = else_branch {
                    s.push('\n');
                    s.push_str(&format!("{pad}else\n"));
                    s.push_str(&render_stmt_at(e, level + 1, false));
                }
                s
            }
            Stmt::While { cond, body, .. } => {
                let mut s = format!("{pad}while {} do\n", render_expr(cond, 0));
                s.push_str(&render_stmt_at(body, level + 1, false));
                s
            }
            Stmt::Block { stmts, .. } => {
                let mut s = format!("{pad}begin\n");
                for (i, st) in stmts.iter().enumerate() {
                    s.push_str(&render_stmt_at(st, level + 1, false));
                    if i + 1 < stmts.len() {
                        s.push(';');
                    }
                    s.push('\n');
                }
                s.push_str(&format!("{pad}end"));
                s
            }
            Stmt::Par { arms, .. } => {
                let rendered: Vec<String> =
                    arms.iter().map(|a| render_stmt_at(a, 0, false)).collect();
                format!("{pad}{}", rendered.join(" || "))
            }
        }
    }

    fn render_rhs(rhs: &Rhs) -> String {
        match rhs {
            Rhs::New => "new()".to_string(),
            Rhs::Expr(e) => render_expr(e, 0),
            Rhs::Call(name, args) => {
                let args = args
                    .iter()
                    .map(|a| render_expr(a, 0))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{name}({args})")
            }
        }
    }

    /// Operator precedence used to insert parentheses only where needed.
    fn precedence(op: BinOp) -> u8 {
        match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }

    fn render_expr(expr: &Expr, parent_prec: u8) -> String {
        match expr {
            Expr::Int(n) => n.to_string(),
            Expr::Nil => "nil".to_string(),
            Expr::Path(p) => p.to_string(),
            Expr::Value(p) => format!("{p}.value"),
            Expr::Unary(op, inner) => match op {
                UnOp::Neg => format!("-{}", render_expr(inner, 6)),
                UnOp::Not => format!("not {}", render_expr(inner, 6)),
            },
            Expr::Binary(op, lhs, rhs) => {
                let prec = precedence(*op);
                let s = format!(
                    "{} {} {}",
                    render_expr(lhs, prec),
                    op,
                    render_expr(rhs, prec + 1)
                );
                if prec < parent_prec {
                    format!("({s})")
                } else {
                    s
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program, parse_stmt};

    /// The renderer matches the oracle byte for byte on `program`, and
    /// every procedure range it reports slices to that procedure's
    /// rendering.
    fn assert_matches_oracle(what: &str, program: &Program) {
        let mut rendered = String::new();
        let mut ranges = Vec::new();
        write_program(&mut rendered, program, |range, text| {
            assert_eq!(range.len(), text.len(), "{what}");
            ranges.push(range);
        });
        assert_eq!(rendered, oracle::pretty_program(program), "{what}");
        assert_eq!(pretty_program(program), rendered, "{what}");
        assert_eq!(ranges.len(), program.procedures.len(), "{what}");
        for (range, proc) in ranges.into_iter().zip(&program.procedures) {
            assert_eq!(&rendered[range], oracle::pretty_procedure(proc), "{what}");
            assert_eq!(pretty_procedure(proc), oracle::pretty_procedure(proc));
        }
        fn each_stmt(what: &str, stmt: &Stmt) {
            assert_eq!(pretty_stmt(stmt), oracle::pretty_stmt(stmt), "{what}");
            match stmt {
                Stmt::Assign { .. } | Stmt::Call { .. } => {}
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    each_stmt(what, then_branch);
                    if let Some(e) = else_branch {
                        each_stmt(what, e);
                    }
                }
                Stmt::While { body, .. } => each_stmt(what, body),
                Stmt::Block { stmts, .. } | Stmt::Par { arms: stmts, .. } => {
                    stmts.iter().for_each(|s| each_stmt(what, s))
                }
            }
        }
        for proc in &program.procedures {
            each_stmt(what, &proc.body);
        }
    }

    /// Every corpus program (each workload at sizes 3–9, as parsed and as
    /// the front end normalizes it) and a spread of generated programs.
    /// The workloads crate links its own build of this crate, so its
    /// programs cross over as text.
    #[test]
    fn renderer_matches_the_oracle_on_the_corpus_and_generated_programs() {
        for size in 3..=9 {
            for workload in sil_workloads::Workload::ALL {
                let what = format!("{}@{size}", workload.name());
                let src = workload.source(size);
                assert_matches_oracle(&what, &parse_program(&src).unwrap());
                assert_matches_oracle(&what, &crate::frontend(&src).unwrap().0);
            }
        }
        for seed in 0..32 {
            let mut generator =
                sil_workloads::ProgramGenerator::new(sil_workloads::GeneratorConfig {
                    handle_vars: 2 + seed as usize % 7,
                    int_vars: 1 + seed as usize % 3,
                    statements: 8 + 4 * seed as usize,
                    seed,
                });
            let text = generator.generate_source();
            assert_matches_oracle(&format!("generated {seed}"), &parse_program(&text).unwrap());
        }
    }

    /// The forms the corpus lacks: parallel arms that are blocks, an `if`
    /// with an `else` inside a loop, unary operators and every precedence.
    #[test]
    fn renderer_matches_the_oracle_on_every_form() {
        let src = r#"
program forms
function f(a: handle; n: int; b: handle) handle
  r: handle; x, y: int
begin
  while not (x < n) and y <> -(x * (y - 1)) do
    if a = nil or x / 2 >= 3 then
      r := a.left
    else
      begin
        x := -x + (y + 1) * 2;
        y := x - (1 - y)
      end;
  r.value := a.value;
  r.right := nil
end
return (r)
procedure main()
  h, l: handle
begin
  h := new();
  l := f(h, 1, h);
  p(l) || begin l := h.left; q(l, -1) end || h.left := nil
end
"#;
        let program = parse_program(src).unwrap();
        assert_matches_oracle("forms", &program);
    }

    #[test]
    fn renders_basic_statements() {
        for src in [
            "a := nil",
            "a := new()",
            "a := b.left",
            "a.right := b",
            "a.value := x + 1",
            "x := a.value",
        ] {
            let stmt = parse_stmt(src).unwrap();
            assert_eq!(pretty_stmt(&stmt), src);
        }
    }

    #[test]
    fn renders_parallel_statement_with_bars() {
        let stmt = parse_stmt("l := h.left || r := h.right").unwrap();
        assert_eq!(pretty_stmt(&stmt), "l := h.left || r := h.right");
    }

    #[test]
    fn renders_negative_argument() {
        let stmt = parse_stmt("add_n(rside, -1)").unwrap();
        assert_eq!(pretty_stmt(&stmt), "add_n(rside, -1)");
    }

    #[test]
    fn expression_parenthesisation_is_minimal() {
        for src in [
            "(1 + 2) * 3",
            "1 + 2 * 3",
            "1 - (2 - 3)",
            "not (a < -b) or c",
        ] {
            let e = parse_expr(src).unwrap();
            assert_eq!(pretty_expr(&e), src);
            assert_eq!(pretty_expr(&e), oracle::pretty_expr(&e));
        }
    }

    #[test]
    fn program_round_trips_through_parser() {
        for src in [
            crate::testsrc::ADD_AND_REVERSE,
            crate::testsrc::ADD_AND_REVERSE_PARALLEL,
            crate::testsrc::LEFTMOST_LOOP,
            crate::testsrc::STRAIGHT_LINE,
        ] {
            let prog = parse_program(src).unwrap();
            let printed = pretty_program(&prog);
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("pretty output failed to reparse: {e}\n{printed}"));
            // Compare while ignoring spans by re-printing.
            assert_eq!(printed, pretty_program(&reparsed));
            assert_eq!(prog.procedures.len(), reparsed.procedures.len());
            assert_eq!(prog.statement_count(), reparsed.statement_count());
        }
    }

    #[test]
    fn declaration_groups_are_compacted() {
        let src = r#"
program p
procedure main()
  a, b: handle; n: int; c: handle
begin
end
"#;
        let prog = parse_program(src).unwrap();
        let printed = pretty_program(&prog);
        assert!(
            printed.contains("a, b: handle; n: int; c: handle"),
            "{printed}"
        );
    }

    #[test]
    fn if_else_renders_and_reparses() {
        let stmt = parse_stmt("if h <> nil then begin l := h.left end else l := nil").unwrap();
        let printed = pretty_stmt(&stmt);
        let reparsed = parse_stmt(&printed).unwrap();
        assert_eq!(pretty_stmt(&reparsed), printed);
    }
}
