//! The SIL abstract syntax tree.
//!
//! The shape follows Figure 1 of the paper: a program is a set of procedures
//! and functions (the entry point is the parameterless procedure `main`);
//! statements are scalar assignments, handle statements, `if`, `while`,
//! blocks, procedure calls and function-call assignments.  We additionally
//! represent the *parallel statement* `s1 || s2 || ... || sn` that appears in
//! the paper's transformed output programs (Figure 8) so the parallelizer can
//! produce, and the runtime can execute, parallel SIL.
//!
//! General assignments may use compound access paths such as
//! `a.left.right := b.right`; [`crate::normalize`] lowers these to the *basic
//! handle statements* over which the path-matrix analysis is defined.

use crate::span::Span;
use std::fmt;

/// An identifier (variable, procedure or function name).
pub type Ident = String;

/// The structural fields of a binary-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    Left,
    Right,
}

impl Field {
    /// The other structural field.
    pub fn opposite(self) -> Field {
        match self {
            Field::Left => Field::Right,
            Field::Right => Field::Left,
        }
    }

    /// All structural fields, in declaration order.
    pub const ALL: [Field; 2] = [Field::Left, Field::Right];

    /// The field's name in the concrete syntax.
    pub fn as_str(self) -> &'static str {
        match self {
            Field::Left => "left",
            Field::Right => "right",
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A compound handle access path: a base handle variable followed by zero or
/// more structural field selections, e.g. `h`, `h.left`, `h.left.right`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HandlePath {
    pub base: Ident,
    pub fields: Vec<Field>,
}

impl HandlePath {
    /// A bare handle variable.
    pub fn var(base: impl Into<Ident>) -> Self {
        HandlePath {
            base: base.into(),
            fields: Vec::new(),
        }
    }

    /// Extend the path by one field selection.
    pub fn then(mut self, field: Field) -> Self {
        self.fields.push(field);
        self
    }

    /// Whether this path is just a variable (no field selections).
    pub fn is_var(&self) -> bool {
        self.fields.is_empty()
    }
}

impl fmt::Display for HandlePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for field in &self.fields {
            write!(f, ".{}", field)?;
        }
        Ok(())
    }
}

/// Binary operators over integers / booleans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Whether the operator produces a boolean (comparison / logical).
    pub fn is_boolean(self) -> bool {
        !matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }

    /// Whether the operator compares its operands (and therefore accepts two
    /// handles, as in `h <> nil`).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

impl BinOp {
    /// The operator's symbol in the concrete syntax.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "not"),
        }
    }
}

/// An expression.  SIL expressions are integer expressions, handle
/// expressions (a handle path or `nil`), or boolean conditions built from
/// comparisons and logical connectives.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// `nil` — the empty handle.
    Nil,
    /// A handle access path used as a value (`h`, `h.left`, ...).  A bare
    /// integer variable is also parsed as `Path` with no fields; the type
    /// checker resolves which it is.
    Path(HandlePath),
    /// `p.value` — the integer stored in the node named by handle path `p`.
    Value(HandlePath),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A bare variable reference.
    pub fn var(name: impl Into<Ident>) -> Expr {
        Expr::Path(HandlePath::var(name))
    }

    /// If this expression is a bare variable, return its name.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Expr::Path(p) if p.is_var() => Some(&p.base),
            _ => None,
        }
    }

    /// Collect every variable mentioned in the expression (handles and ints).
    pub fn variables(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Ident>) {
        match self {
            Expr::Int(_) | Expr::Nil => {}
            Expr::Path(p) | Expr::Value(p) => out.push(p.base.clone()),
            Expr::Unary(_, e) => e.collect_variables(out),
            Expr::Binary(_, a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
        }
    }
}

/// The left-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// `x := ...` or `a := ...` — a plain variable.
    Var(Ident),
    /// `p.left := ...` / `p.right := ...` — a structural field of the node
    /// named by the handle path `p`.
    Field(HandlePath, Field),
    /// `p.value := ...` — the value field of the node named by `p`.
    Value(HandlePath),
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LValue::Var(v) => write!(f, "{v}"),
            LValue::Field(p, field) => write!(f, "{p}.{field}"),
            LValue::Value(p) => write!(f, "{p}.value"),
        }
    }
}

/// The right-hand side of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rhs {
    /// An expression (integer, handle path, `nil`, ...).
    Expr(Expr),
    /// `new()` — allocate a fresh node.
    New,
    /// `f(args)` — a function call whose result is assigned.
    Call(Ident, Vec<Expr>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `lhs := rhs` — covers scalar assignments, all basic handle statements
    /// and compound forms that [`crate::normalize`] lowers.
    Assign { lhs: LValue, rhs: Rhs, span: Span },
    /// `if cond then s [else s]`.
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
        span: Span,
    },
    /// `while cond do s`.
    While {
        cond: Expr,
        body: Box<Stmt>,
        span: Span,
    },
    /// `begin s1; s2; ... end`.
    Block { stmts: Vec<Stmt>, span: Span },
    /// `p(args)` — a procedure call.
    Call {
        proc: Ident,
        args: Vec<Expr>,
        span: Span,
    },
    /// `s1 || s2 || ... || sn` — parallel composition: all arms start from the
    /// same state and execute concurrently; the statement completes when all
    /// arms complete.
    Par { arms: Vec<Stmt>, span: Span },
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Block { span, .. }
            | Stmt::Call { span, .. }
            | Stmt::Par { span, .. } => *span,
        }
    }

    /// Build a block from a vector of statements with a dummy span.
    pub fn block(stmts: Vec<Stmt>) -> Stmt {
        Stmt::Block {
            stmts,
            span: Span::DUMMY,
        }
    }

    /// Build a parallel statement from a vector of arms with a dummy span.
    pub fn par(arms: Vec<Stmt>) -> Stmt {
        Stmt::Par {
            arms,
            span: Span::DUMMY,
        }
    }

    /// Count the statements in this subtree (compound statements count as one
    /// plus their children).
    pub fn count(&self) -> usize {
        match self {
            Stmt::Assign { .. } | Stmt::Call { .. } => 1,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => 1 + then_branch.count() + else_branch.as_ref().map_or(0, |e| e.count()),
            Stmt::While { body, .. } => 1 + body.count(),
            Stmt::Block { stmts, .. } => 1 + stmts.iter().map(Stmt::count).sum::<usize>(),
            Stmt::Par { arms, .. } => 1 + arms.iter().map(Stmt::count).sum::<usize>(),
        }
    }

    /// Whether the subtree contains any parallel composition.
    pub fn has_par(&self) -> bool {
        match self {
            Stmt::Par { .. } => true,
            Stmt::Assign { .. } | Stmt::Call { .. } => false,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => then_branch.has_par() || else_branch.as_ref().is_some_and(|e| e.has_par()),
            Stmt::While { body, .. } => body.has_par(),
            Stmt::Block { stmts, .. } => stmts.iter().any(Stmt::has_par),
        }
    }
}

/// The declared type of a variable or parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeName {
    Int,
    Handle,
}

impl TypeName {
    /// The type's name in the concrete syntax.
    pub fn as_str(self) -> &'static str {
        match self {
            TypeName::Int => "int",
            TypeName::Handle => "handle",
        }
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A declared parameter or local variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    pub name: Ident,
    pub ty: TypeName,
    pub span: Span,
}

impl Decl {
    pub fn new(name: impl Into<Ident>, ty: TypeName) -> Self {
        Decl {
            name: name.into(),
            ty,
            span: Span::DUMMY,
        }
    }
}

/// A procedure or function definition.
///
/// Functions have `return_type = Some(..)` and a `return_var` naming the
/// local whose value is returned (`return (x)` in the concrete syntax).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Procedure {
    pub name: Ident,
    pub params: Vec<Decl>,
    pub locals: Vec<Decl>,
    pub body: Stmt,
    pub return_type: Option<TypeName>,
    pub return_var: Option<Ident>,
    pub span: Span,
}

impl Procedure {
    /// Whether this is a function (has a return value) rather than a procedure.
    pub fn is_function(&self) -> bool {
        self.return_type.is_some()
    }

    /// The declared handle-typed parameters, in order.
    pub fn handle_params(&self) -> Vec<&Decl> {
        self.params
            .iter()
            .filter(|d| d.ty == TypeName::Handle)
            .collect()
    }

    /// Look up a parameter or local declaration by name.
    pub fn decl(&self, name: &str) -> Option<&Decl> {
        self.params
            .iter()
            .chain(self.locals.iter())
            .find(|d| d.name == name)
    }
}

/// A whole SIL program: a name plus its procedures and functions.  The entry
/// point is the parameterless procedure `main`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub name: Ident,
    pub procedures: Vec<Procedure>,
    pub span: Span,
}

impl Program {
    /// Look up a procedure or function by name.
    pub fn procedure(&self, name: &str) -> Option<&Procedure> {
        self.procedures.iter().find(|p| p.name == name)
    }

    /// The entry procedure `main`, if present.
    pub fn main(&self) -> Option<&Procedure> {
        self.procedure("main")
    }

    /// Total number of statements in the program.
    pub fn statement_count(&self) -> usize {
        self.procedures.iter().map(|p| p.body.count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_opposite() {
        assert_eq!(Field::Left.opposite(), Field::Right);
        assert_eq!(Field::Right.opposite(), Field::Left);
    }

    #[test]
    fn handle_path_display() {
        let p = HandlePath::var("h").then(Field::Left).then(Field::Right);
        assert_eq!(p.to_string(), "h.left.right");
        assert!(!p.is_var());
        assert!(HandlePath::var("x").is_var());
    }

    #[test]
    fn expr_variables() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Value(HandlePath::var("h"))),
            Box::new(Expr::var("n")),
        );
        assert_eq!(e.variables(), vec!["h".to_string(), "n".to_string()]);
    }

    #[test]
    fn expr_as_var() {
        assert_eq!(Expr::var("x").as_var(), Some("x"));
        assert_eq!(
            Expr::Path(HandlePath::var("x").then(Field::Left)).as_var(),
            None
        );
        assert_eq!(Expr::Int(1).as_var(), None);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_boolean());
        assert!(BinOp::And.is_boolean());
        assert!(!BinOp::Add.is_boolean());
        assert!(BinOp::Ne.is_comparison());
        assert!(!BinOp::And.is_comparison());
    }

    #[test]
    fn stmt_count_and_has_par() {
        let a = Stmt::Assign {
            lhs: LValue::Var("x".into()),
            rhs: Rhs::Expr(Expr::Int(1)),
            span: Span::DUMMY,
        };
        let block = Stmt::block(vec![a.clone(), a.clone()]);
        assert_eq!(block.count(), 3);
        assert!(!block.has_par());
        let par = Stmt::par(vec![a.clone(), a]);
        assert_eq!(par.count(), 3);
        assert!(par.has_par());
        let nested = Stmt::block(vec![par]);
        assert!(nested.has_par());
    }

    #[test]
    fn procedure_queries() {
        let p = Procedure {
            name: "add_n".into(),
            params: vec![
                Decl::new("h", TypeName::Handle),
                Decl::new("n", TypeName::Int),
            ],
            locals: vec![Decl::new("l", TypeName::Handle)],
            body: Stmt::block(vec![]),
            return_type: None,
            return_var: None,
            span: Span::DUMMY,
        };
        assert!(!p.is_function());
        assert_eq!(p.handle_params().len(), 1);
        assert_eq!(p.decl("l").unwrap().ty, TypeName::Handle);
        assert!(p.decl("zzz").is_none());
    }

    #[test]
    fn program_queries() {
        let prog = Program {
            name: "t".into(),
            procedures: vec![Procedure {
                name: "main".into(),
                params: vec![],
                locals: vec![],
                body: Stmt::block(vec![]),
                return_type: None,
                return_var: None,
                span: Span::DUMMY,
            }],
            span: Span::DUMMY,
        };
        assert!(prog.main().is_some());
        assert!(prog.procedure("nope").is_none());
        assert_eq!(prog.statement_count(), 1);
    }

    #[test]
    fn lvalue_display() {
        assert_eq!(LValue::Var("x".into()).to_string(), "x");
        assert_eq!(
            LValue::Field(HandlePath::var("h"), Field::Left).to_string(),
            "h.left"
        );
        assert_eq!(LValue::Value(HandlePath::var("h")).to_string(), "h.value");
    }
}
