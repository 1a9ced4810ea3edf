//! Live-variable analysis over the structured SIL AST.
//!
//! The paper defines: *"A handle `h` is live at a point `p` if there is some
//! execution path starting at `p` that uses `h`."*  Path matrices only need
//! to relate live handles, and the statement-sequence interference method of
//! §5.3 needs the set `L` of handles *used before being defined* in a
//! statement sequence.  This module provides both.
//!
//! The analysis is a standard backward dataflow over the structured AST (SIL
//! has no unstructured control flow), with a fixpoint for `while` loops.

use crate::ast::*;
use std::collections::BTreeSet;

/// The set of variable names (handles and integers) *read* by a statement,
/// not counting reads in nested statements' sub-structure — i.e. reads that
/// occur when the statement itself executes (conditions, right-hand sides,
/// dereferenced bases, call arguments).
pub fn direct_uses(stmt: &Stmt) -> BTreeSet<Ident> {
    let mut out = BTreeSet::new();
    match stmt {
        Stmt::Assign { lhs, rhs, .. } => {
            // Dereferencing the left-hand side reads the base handle.
            match lhs {
                LValue::Var(_) => {}
                LValue::Field(p, _) | LValue::Value(p) => {
                    out.insert(p.base.clone());
                }
            }
            match rhs {
                Rhs::Expr(e) => out.extend(e.variables()),
                Rhs::Call(_, args) => args.iter().for_each(|a| out.extend(a.variables())),
                Rhs::New => {}
            }
        }
        Stmt::Call { args, .. } => args.iter().for_each(|a| out.extend(a.variables())),
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => out.extend(cond.variables()),
        Stmt::Block { .. } | Stmt::Par { .. } => {}
    }
    out
}

/// The variable *defined* (fully overwritten) by a statement, if any.
/// Field and value stores do not define a variable — they mutate the heap.
pub fn direct_def(stmt: &Stmt) -> Option<Ident> {
    match stmt {
        Stmt::Assign {
            lhs: LValue::Var(v),
            ..
        } => Some(v.clone()),
        _ => None,
    }
}

/// Variables used anywhere within `stmt` (including nested statements)
/// *before* being defined on that path — the `L` set of §5.3.
pub fn used_before_defined(stmt: &Stmt) -> BTreeSet<Ident> {
    // live-in with empty live-out gives exactly the upward-exposed uses
    live_in(stmt, &BTreeSet::new())
}

/// The set of variables live immediately before `stmt`, given the set live
/// immediately after it.
pub fn live_in(stmt: &Stmt, live_out: &BTreeSet<Ident>) -> BTreeSet<Ident> {
    match stmt {
        Stmt::Assign { .. } | Stmt::Call { .. } => {
            let mut live = live_out.clone();
            if let Some(def) = direct_def(stmt) {
                live.remove(&def);
            }
            live.extend(direct_uses(stmt));
            live
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let mut live = live_in(then_branch, live_out);
            match else_branch {
                Some(e) => live.extend(live_in(e, live_out)),
                None => live.extend(live_out.iter().cloned()),
            }
            live.extend(cond.variables());
            live
        }
        Stmt::While { cond, body, .. } => {
            // Fixpoint: the loop may execute zero or more times.
            let mut live = live_out.clone();
            live.extend(cond.variables());
            loop {
                let mut next = live_in(body, &live);
                next.extend(live_out.iter().cloned());
                next.extend(cond.variables());
                if next == live {
                    return live;
                }
                live = next;
            }
        }
        Stmt::Block { stmts, .. } => {
            let mut live = live_out.clone();
            for s in stmts.iter().rev() {
                live = live_in(s, &live);
            }
            live
        }
        Stmt::Par { arms, .. } => {
            // All arms start from the same point; a variable is live before
            // the parallel statement if it is live into any arm.
            let mut live = BTreeSet::new();
            for arm in arms {
                live.extend(live_in(arm, live_out));
            }
            live
        }
    }
}

/// Live sets *before each statement* of a block body (and after the last),
/// given the variables live at block exit.  Returns `stmts.len() + 1` sets:
/// entry of each statement followed by the exit set.
pub fn live_points(stmts: &[Stmt], live_at_exit: &BTreeSet<Ident>) -> Vec<BTreeSet<Ident>> {
    let mut result = vec![BTreeSet::new(); stmts.len() + 1];
    result[stmts.len()] = live_at_exit.clone();
    for i in (0..stmts.len()).rev() {
        result[i] = live_in(&stmts[i], &result[i + 1]);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_stmt;

    fn set(names: &[&str]) -> BTreeSet<Ident> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn direct_uses_of_assignments() {
        assert_eq!(
            direct_uses(&parse_stmt("a := b.left").unwrap()),
            set(&["b"])
        );
        assert_eq!(
            direct_uses(&parse_stmt("a.left := b").unwrap()),
            set(&["a", "b"])
        );
        assert_eq!(
            direct_uses(&parse_stmt("h.value := h.value + n").unwrap()),
            set(&["h", "n"])
        );
        assert_eq!(direct_uses(&parse_stmt("a := new()").unwrap()), set(&[]));
        assert_eq!(
            direct_uses(&parse_stmt("f(a, x + y)").unwrap()),
            set(&["a", "x", "y"])
        );
    }

    #[test]
    fn direct_def_only_for_variable_targets() {
        assert_eq!(
            direct_def(&parse_stmt("a := b").unwrap()),
            Some("a".to_string())
        );
        assert_eq!(direct_def(&parse_stmt("a.left := b").unwrap()), None);
        assert_eq!(direct_def(&parse_stmt("a.value := 1").unwrap()), None);
    }

    #[test]
    fn straight_line_liveness() {
        let s = parse_stmt("begin a := b; c := a end").unwrap();
        // nothing live after; `b` is needed on entry, `a` is defined before use
        assert_eq!(used_before_defined(&s), set(&["b"]));
        // with `c` live at exit it stays live through nothing (it's defined)
        let live = live_in(&s, &set(&["c", "z"]));
        assert_eq!(live, set(&["b", "z"]));
    }

    #[test]
    fn definition_kills_liveness() {
        let s = parse_stmt("begin a := nil; b := a end").unwrap();
        assert_eq!(used_before_defined(&s), set(&[]));
    }

    #[test]
    fn field_store_does_not_kill() {
        let s = parse_stmt("begin a.left := b; c := a end").unwrap();
        assert_eq!(used_before_defined(&s), set(&["a", "b"]));
    }

    #[test]
    fn if_both_branches() {
        let s = parse_stmt("if x > 0 then a := b else a := c").unwrap();
        assert_eq!(used_before_defined(&s), set(&["b", "c", "x"]));
        // `a` live after: defined in both branches, so not live before
        let live = live_in(&s, &set(&["a"]));
        assert_eq!(live, set(&["b", "c", "x"]));
    }

    #[test]
    fn if_without_else_keeps_live_out() {
        let s = parse_stmt("if x > 0 then a := b").unwrap();
        let live = live_in(&s, &set(&["a"]));
        // `a` may flow around the if
        assert_eq!(live, set(&["a", "b", "x"]));
    }

    #[test]
    fn while_loop_fixpoint() {
        // Figure 3: l := h; while l.left <> nil do l := l.left
        let s = parse_stmt("begin l := h; while l.left <> nil do l := l.left end").unwrap();
        assert_eq!(used_before_defined(&s), set(&["h"]));
        // inside the loop, `l` is both used and defined; from the outside only
        // `h` is needed
        let w = parse_stmt("while l.left <> nil do l := l.left").unwrap();
        assert_eq!(used_before_defined(&w), set(&["l"]));
    }

    #[test]
    fn par_arms_union() {
        let s = parse_stmt("a := b || c := d").unwrap();
        assert_eq!(used_before_defined(&s), set(&["b", "d"]));
    }

    #[test]
    fn live_points_per_statement() {
        let s = parse_stmt("begin a := h; b := a.left; c := a.right end").unwrap();
        let Stmt::Block { stmts, .. } = &s else {
            unreachable!()
        };
        let pts = live_points(stmts, &set(&["b", "c"]));
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0], set(&["h"]));
        assert_eq!(pts[1], set(&["a"]));
        assert_eq!(pts[2], set(&["a", "b"]));
        assert_eq!(pts[3], set(&["b", "c"]));
    }
}
