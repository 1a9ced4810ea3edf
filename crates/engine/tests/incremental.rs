//! Differential mutation harness for incremental re-analysis.
//!
//! A deterministic program mutator derives edited variants of every built-in
//! workload (rename a local, swap two adjacent statements, duplicate a
//! statement in one procedure body, append a dead procedure).  For every
//! base/edited pair the engine — primed with the base program so the edit
//! takes the incremental path — must produce an analysis whose digest equals
//! a from-scratch `analyze_program` of the edited program.  A dedicated test
//! additionally proves that a single-procedure edit reuses the retained
//! walks of every strongly connected component outside the edited
//! procedure's dependent cone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sil_analysis::{analyze_program, CallGraph};
use sil_engine::{Engine, EngineConfig, StoreConfig};
use sil_lang::ast::*;
use sil_lang::span::Span;
use sil_lang::{frontend, pretty_program};
use sil_workloads::Workload;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// The mutator
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Rename one local variable of one procedure (alpha-conversion: the
    /// analysis result changes only in handle names).
    RenameLocal,
    /// Swap two adjacent statements of one block (usually a semantic change).
    SwapStmts,
    /// Duplicate one statement of one block in one procedure body.
    DuplicateStmt,
    /// Append a procedure unreachable from `main`.
    AddDeadProcedure,
}

const MUTATIONS: [Mutation; 4] = [
    Mutation::RenameLocal,
    Mutation::SwapStmts,
    Mutation::DuplicateStmt,
    Mutation::AddDeadProcedure,
];

fn rename_path(path: &HandlePath, old: &str, new: &str) -> HandlePath {
    HandlePath {
        base: if path.base == old {
            new.to_string()
        } else {
            path.base.clone()
        },
        fields: path.fields.clone(),
    }
}

fn rename_expr(expr: &Expr, old: &str, new: &str) -> Expr {
    match expr {
        Expr::Int(_) | Expr::Nil => expr.clone(),
        Expr::Path(p) => Expr::Path(rename_path(p, old, new)),
        Expr::Value(p) => Expr::Value(rename_path(p, old, new)),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(rename_expr(e, old, new))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(rename_expr(a, old, new)),
            Box::new(rename_expr(b, old, new)),
        ),
    }
}

fn rename_lvalue(lvalue: &LValue, old: &str, new: &str) -> LValue {
    match lvalue {
        LValue::Var(v) => LValue::Var(if v == old { new.to_string() } else { v.clone() }),
        LValue::Field(p, f) => LValue::Field(rename_path(p, old, new), *f),
        LValue::Value(p) => LValue::Value(rename_path(p, old, new)),
    }
}

/// Rename every *variable* occurrence (procedure names are untouched).
fn rename_stmt(stmt: &Stmt, old: &str, new: &str) -> Stmt {
    match stmt {
        Stmt::Assign { lhs, rhs, span } => Stmt::Assign {
            lhs: rename_lvalue(lhs, old, new),
            rhs: match rhs {
                Rhs::Expr(e) => Rhs::Expr(rename_expr(e, old, new)),
                Rhs::New => Rhs::New,
                Rhs::Call(f, args) => Rhs::Call(
                    f.clone(),
                    args.iter().map(|a| rename_expr(a, old, new)).collect(),
                ),
            },
            span: *span,
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            span,
        } => Stmt::If {
            cond: rename_expr(cond, old, new),
            then_branch: Box::new(rename_stmt(then_branch, old, new)),
            else_branch: else_branch
                .as_ref()
                .map(|e| Box::new(rename_stmt(e, old, new))),
            span: *span,
        },
        Stmt::While { cond, body, span } => Stmt::While {
            cond: rename_expr(cond, old, new),
            body: Box::new(rename_stmt(body, old, new)),
            span: *span,
        },
        Stmt::Block { stmts, span } => Stmt::Block {
            stmts: stmts.iter().map(|s| rename_stmt(s, old, new)).collect(),
            span: *span,
        },
        Stmt::Call { proc, args, span } => Stmt::Call {
            proc: proc.clone(),
            args: args.iter().map(|a| rename_expr(a, old, new)).collect(),
            span: *span,
        },
        Stmt::Par { arms, span } => Stmt::Par {
            arms: arms.iter().map(|a| rename_stmt(a, old, new)).collect(),
            span: *span,
        },
    }
}

/// Visit every block's statement list bottom-up.
fn for_each_block_mut(stmt: &mut Stmt, f: &mut impl FnMut(&mut Vec<Stmt>)) {
    match stmt {
        Stmt::Block { stmts, .. } => {
            for s in stmts.iter_mut() {
                for_each_block_mut(s, f);
            }
            f(stmts);
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            for_each_block_mut(then_branch, f);
            if let Some(e) = else_branch {
                for_each_block_mut(e, f);
            }
        }
        Stmt::While { body, .. } => for_each_block_mut(body, f),
        Stmt::Par { arms, .. } => {
            for a in arms.iter_mut() {
                for_each_block_mut(a, f);
            }
        }
        Stmt::Assign { .. } | Stmt::Call { .. } => {}
    }
}

fn count_blocks(stmt: &Stmt, min_len: usize) -> usize {
    let mut count = 0;
    let mut probe = stmt.clone();
    for_each_block_mut(&mut probe, &mut |stmts| {
        if stmts.len() >= min_len {
            count += 1;
        }
    });
    count
}

/// Apply one deterministic mutation; `None` when the program offers no
/// applicable site.
fn apply_mutation(program: &Program, mutation: Mutation, rng: &mut StdRng) -> Option<Program> {
    let mut mutated = program.clone();
    match mutation {
        Mutation::RenameLocal => {
            let candidates: Vec<usize> = program
                .procedures
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.locals.is_empty())
                .map(|(i, _)| i)
                .collect();
            let &pi = candidates.get(rng.gen_range(0..candidates.len().max(1)))?;
            let proc = &mut mutated.procedures[pi];
            let li = rng.gen_range(0..proc.locals.len());
            let old = proc.locals[li].name.clone();
            let mut new = format!("{old}_rn");
            while proc.decl(&new).is_some() {
                new.push('x');
            }
            proc.locals[li].name = new.clone();
            proc.body = rename_stmt(&proc.body, &old, &new);
            if proc.return_var.as_deref() == Some(old.as_str()) {
                proc.return_var = Some(new);
            }
        }
        Mutation::SwapStmts => {
            let pi = rng.gen_range(0..program.procedures.len());
            let proc = &mut mutated.procedures[pi];
            let blocks = count_blocks(&proc.body, 2);
            if blocks == 0 {
                return None;
            }
            let target = rng.gen_range(0..blocks);
            let offset = rng.gen_u64() as usize;
            let mut seen = 0usize;
            let mut swapped = false;
            for_each_block_mut(&mut proc.body, &mut |stmts| {
                if stmts.len() < 2 || swapped || seen != target {
                    if stmts.len() >= 2 {
                        seen += 1;
                    }
                    return;
                }
                seen += 1;
                // Prefer a pair that actually differs so the edit is real.
                for k in 0..stmts.len() - 1 {
                    let i = (offset + k) % (stmts.len() - 1);
                    if stmts[i] != stmts[i + 1] {
                        stmts.swap(i, i + 1);
                        swapped = true;
                        return;
                    }
                }
                stmts.swap(0, 1);
                swapped = true;
            });
        }
        Mutation::DuplicateStmt => {
            let pi = rng.gen_range(0..program.procedures.len());
            let proc = &mut mutated.procedures[pi];
            let blocks = count_blocks(&proc.body, 1);
            if blocks == 0 {
                return None;
            }
            let target = rng.gen_range(0..blocks);
            let pick = rng.gen_u64() as usize;
            let mut seen = 0usize;
            for_each_block_mut(&mut proc.body, &mut |stmts| {
                if stmts.is_empty() {
                    return;
                }
                if seen == target {
                    let i = pick % stmts.len();
                    let copy = stmts[i].clone();
                    stmts.insert(i, copy);
                }
                seen += 1;
            });
        }
        Mutation::AddDeadProcedure => {
            let tag = rng.gen_range(0..1_000_000u64);
            mutated.procedures.push(Procedure {
                name: format!("dead_mut_{tag}"),
                params: vec![Decl::new("t", TypeName::Handle)],
                locals: vec![],
                body: Stmt::block(vec![Stmt::Assign {
                    lhs: LValue::Value(HandlePath::var("t")),
                    rhs: Rhs::Expr(Expr::Int(tag as i64)),
                    span: Span::DUMMY,
                }]),
                return_type: None,
                return_var: None,
                span: Span::DUMMY,
            });
        }
    }
    Some(mutated)
}

// ---------------------------------------------------------------------------
// The differential harness
// ---------------------------------------------------------------------------

/// ≥100 base/edited pairs across all workloads and mutation kinds: the
/// incremental engine digest must equal the from-scratch analysis digest on
/// every pair.
#[test]
fn incremental_digest_equals_full_analysis_on_mutated_programs() {
    let mut pairs = 0usize;
    let mut reused_walks_somewhere = false;

    for workload in Workload::ALL {
        let base_src = workload.source(workload.test_size());
        let (base_program, _) = frontend(&base_src).unwrap();
        let base_canonical = pretty_program(&base_program);

        // One engine per workload, primed with the base program: every
        // mutated variant takes the incremental path against it (and
        // against earlier variants' retained cones).
        let engine = Engine::default();
        engine.analyze_source(&base_src).unwrap();

        for (mi, mutation) in MUTATIONS.iter().enumerate() {
            for variant in 0..3u64 {
                let seed = 1_000 * (mi as u64 + 1) + 17 * variant + workload.name().len() as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let Some(mutated) = apply_mutation(&base_program, *mutation, &mut rng) else {
                    continue;
                };
                let mutated_src = pretty_program(&mutated);
                if mutated_src == base_canonical {
                    continue;
                }

                let entry = engine.analyze_source(&mutated_src).unwrap();
                let (program, types) = frontend(&mutated_src).unwrap();
                let oracle = analyze_program(&program, &types);
                assert_eq!(
                    entry.analysis.digest(),
                    oracle.digest(),
                    "{}/{mutation:?}/{variant}: incremental result diverges from scratch",
                    workload.name()
                );
                if entry
                    .incremental
                    .is_some_and(|stats| stats.walks_reused > 0)
                {
                    reused_walks_somewhere = true;
                }
                pairs += 1;
            }
        }
    }

    assert!(pairs >= 100, "only {pairs} edit pairs were exercised");
    assert!(
        reused_walks_somewhere,
        "not a single mutation replayed retained walks — incremental path inert?"
    );
}

/// A single-procedure edit must reuse the retained walks of every
/// component outside the edited procedure's dependent cone.
#[test]
fn single_procedure_edit_reuses_everything_outside_the_dependent_cone() {
    // tree_sum: main -> sum -> (self), main -> build -> (self).
    // Editing `sum` leaves build's cone untouched; main and sum go stale.
    let base_src = Workload::TreeSum.source(Workload::TreeSum.test_size());
    let edited_src = base_src.replace("s := t.value + a + b", "s := t.value + a + b + 1");
    assert_ne!(edited_src, base_src, "edit must apply");

    let (base_program, _) = frontend(&base_src).unwrap();
    let (edited_program, _) = frontend(&edited_src).unwrap();
    let base_cones = CallGraph::of_program(&base_program).cone_fingerprints(&base_program);
    let edited_cones = CallGraph::of_program(&edited_program).cone_fingerprints(&edited_program);

    // The ground truth this test is about: exactly sum's dependent cone
    // (sum itself and its transitive caller main) changes fingerprints.
    let stale: HashSet<&str> = edited_cones
        .iter()
        .filter(|(name, fp)| base_cones.get(*name) != Some(fp))
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(
        stale,
        HashSet::from(["sum", "main"]),
        "dependent cone of the edit"
    );

    let distinct = |cones: &HashMap<String, u64>, filter: &dyn Fn(&str) -> bool| -> HashSet<u64> {
        cones
            .iter()
            .filter(|(n, _)| filter(n))
            .map(|(_, fp)| *fp)
            .collect()
    };
    let unchanged_sccs = distinct(&edited_cones, &|n| !stale.contains(n)).len();
    let stale_sccs = distinct(&edited_cones, &|n| stale.contains(n)).len();

    // Walk records are kept from a cone's second sighting on, so the base
    // is sighted twice before the edit.
    let engine = Engine::default();
    engine.analyze_source(&base_src).unwrap();
    engine.clear_program_cache();
    engine.analyze_source(&base_src).unwrap();
    let before = engine.stats();
    let entry = engine.analyze_source(&edited_src).unwrap();
    let after = engine.stats();

    // Walk cache: every unchanged component hits, every stale one misses…
    assert_eq!(
        (after.walks.hits - before.walks.hits) as usize,
        unchanged_sccs
    );
    assert_eq!(
        (after.walks.misses - before.walks.misses) as usize,
        stale_sccs
    );

    // …and per procedure in the entry's incremental stats.
    let stats = entry.incremental.expect("incremental path was taken");
    assert_eq!(stats.procedures_reused, edited_cones.len() - stale.len());
    assert_eq!(stats.procedures_stale, stale.len());
    assert!(
        stats.walks_reused > 0,
        "build's walks must replay: {stats:?}"
    );

    // The digests still agree with a from-scratch analysis.
    let (program, types) = frontend(&edited_src).unwrap();
    assert_eq!(
        entry.analysis.digest(),
        analyze_program(&program, &types).digest()
    );
}

/// Procedures unreachable from `main` are never walked, so the incremental
/// stats must not classify them — a steady-state edit of a program with dead
/// code reports exactly its live stale/reused split.
#[test]
fn unreachable_procedures_do_not_count_as_stale() {
    let base_src = Workload::TreeSum.source(4);
    let (base_program, _) = frontend(&base_src).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let with_dead = apply_mutation(&base_program, Mutation::AddDeadProcedure, &mut rng).unwrap();
    let with_dead_src = pretty_program(&with_dead);

    // Sighted twice, so its cones' walk records are kept.
    let engine = Engine::default();
    engine.analyze_source(&with_dead_src).unwrap();
    engine.clear_program_cache();
    engine.analyze_source(&with_dead_src).unwrap();

    // Edit main only: sum and build stay reusable, the dead procedure is
    // never walked and must appear in neither count.
    let edited = with_dead_src.replace("d := 4", "d := 3");
    assert_ne!(edited, with_dead_src, "edit must apply");
    let entry = engine.analyze_source(&edited).unwrap();
    let stats = entry.incremental.expect("incremental path was taken");
    assert_eq!(stats.procedures_stale, 1, "{stats:?}");
    assert_eq!(stats.procedures_reused, 2, "{stats:?}");
}

/// Walk records enter the store only for cones this request found in the
/// `walks` namespace: a never-seen program's cones get empty record sets
/// and keep no records, its second sighting keeps them all, and an edit
/// after that replays.
#[test]
fn walk_records_are_kept_from_a_cones_second_sighting() {
    let src = Workload::TreeSum.source(4);
    let edited = src.replace("d := 4", "d := 3");
    assert_ne!(edited, src, "edit must apply");
    let engine = Engine::default();
    let declined = || {
        engine
            .metrics_raw()
            .summarize()
            .counter("engine.walks.declined")
            .expect("the engine registers engine.walks.declined")
    };

    // First sighting: every cone is new and gets an empty record set; no
    // record is kept.
    let first = engine.analyze_source(&src).unwrap();
    assert!(first.incremental.expect("incremental").walks_performed > 0);
    assert_eq!(engine.stats().walks.insertions, 0);
    let cones = declined();
    assert!(cones > 0);
    assert_eq!(engine.store_stats().walks.entries as u64, cones, "sighted");

    // Second sighting: every cone has an entry, so every cone's records are
    // kept, though none were there to replay.
    engine.clear_program_cache();
    let second = engine.analyze_source(&src).unwrap();
    assert_eq!(second.incremental.expect("incremental").walks_reused, 0);
    assert_eq!(engine.stats().walks.insertions, cones);
    assert_eq!(engine.store_stats().walks.entries as u64, cones);
    assert_eq!(declined(), cones, "nothing declined on a second sighting");

    // An edit of main: the callee cones replay, and main's new cone is the
    // one declined.
    let third = engine.analyze_source(&edited).unwrap();
    let stats = third.incremental.expect("incremental");
    assert!(stats.walks_reused > 0, "{stats:?}");
    assert_eq!(declined(), cones + 1);

    for (entry, src) in [(&first, &src), (&second, &src), (&third, &edited)] {
        let (program, types) = frontend(src).unwrap();
        assert_eq!(
            entry.analysis.digest(),
            analyze_program(&program, &types).digest()
        );
    }
}

/// Sightings and records share the `walks` slots, so a cone whose entry
/// was evicted is on its first sighting again: with room for exactly
/// program A's cones, a never-seen program B evicts every one of them, and
/// A's next edit declines its records and replays nothing.
#[test]
fn an_evicted_sighting_is_a_first_sighting_again() {
    let distinct_cones = |src: &str| {
        let (program, _) = frontend(src).unwrap();
        let cones = CallGraph::of_program(&program).cone_fingerprints(&program);
        cones.into_values().collect::<HashSet<u64>>()
    };
    let a = Workload::TreeSum.source(4);
    let edited = a.replace("d := 4", "d := 3");
    assert_ne!(edited, a, "edit must apply");
    let b = Workload::Bisort.source(4);
    let a_cones = distinct_cones(&a);
    let b_cones = distinct_cones(&b);
    assert!(b_cones.len() >= a_cones.len(), "B can evict all of A");
    assert!(a_cones.is_disjoint(&b_cones), "B never saw A's cones");

    let engine = Engine::new(EngineConfig {
        store: StoreConfig {
            walk_capacity: a_cones.len(),
            ..StoreConfig::default().with_stripes(1)
        },
    });
    let declined = || {
        engine
            .metrics_raw()
            .summarize()
            .counter("engine.walks.declined")
            .expect("the engine registers engine.walks.declined")
    };

    // A twice: its cones are admitted.
    engine.analyze_source(&a).unwrap();
    engine.clear_program_cache();
    engine.analyze_source(&a).unwrap();
    assert_eq!(engine.stats().walks.insertions as usize, a_cones.len());

    // B's first sightings take every slot.
    engine.analyze_source(&b).unwrap();
    let evictions = engine.store_stats().walks.totals.evictions as usize;
    assert!(evictions >= a_cones.len(), "{evictions} evictions");

    // A's edit: every cone is a first sighting again.
    let before = declined();
    let entry = engine.analyze_source(&edited).unwrap();
    let stats = entry.incremental.expect("incremental");
    assert_eq!(stats.walks_reused, 0, "{stats:?}");
    assert_eq!(declined() - before, a_cones.len() as u64);
    let (program, types) = frontend(&edited).unwrap();
    assert_eq!(
        entry.analysis.digest(),
        analyze_program(&program, &types).digest()
    );
}

/// Alpha-conversion sanity: renaming a local is a real edit (digest moves
/// with the handle names) but stays exact through the incremental path.
#[test]
fn rename_local_round_trips_through_the_incremental_path() {
    let base_src = Workload::AddAndReverse.source(4);
    let (base_program, _) = frontend(&base_src).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mutated = apply_mutation(&base_program, Mutation::RenameLocal, &mut rng).unwrap();
    let mutated_src = pretty_program(&mutated);
    assert_ne!(mutated_src, pretty_program(&base_program));

    // The mutated program still parses, type checks, and analyzes.
    let (program, types) = frontend(&mutated_src).unwrap();
    let oracle = analyze_program(&program, &types);

    let engine = Engine::default();
    engine.analyze_source(&base_src).unwrap();
    let entry = engine.analyze_source(&mutated_src).unwrap();
    assert_eq!(entry.analysis.digest(), oracle.digest());
}
