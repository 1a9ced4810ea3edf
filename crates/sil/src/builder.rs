//! A programmatic AST construction API.
//!
//! The workload generators and several benchmarks synthesize SIL programs of
//! parameterised size; building ASTs through this fluent interface is less
//! error-prone than formatting and re-parsing source strings (though both
//! routes are supported and tested to agree).

use crate::ast::*;
use crate::span::Span;

/// Build expressions.
pub mod expr {
    use super::*;

    pub fn int(n: i64) -> Expr {
        Expr::Int(n)
    }

    pub fn nil() -> Expr {
        Expr::Nil
    }

    pub fn var(name: &str) -> Expr {
        Expr::var(name)
    }

    pub fn load(base: &str, field: Field) -> Expr {
        Expr::Path(HandlePath::var(base).then(field))
    }

    pub fn value(base: &str) -> Expr {
        Expr::Value(HandlePath::var(base))
    }

    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        bin(BinOp::Add, lhs, rhs)
    }

    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        bin(BinOp::Sub, lhs, rhs)
    }

    pub fn ne(lhs: Expr, rhs: Expr) -> Expr {
        bin(BinOp::Ne, lhs, rhs)
    }

    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        bin(BinOp::Eq, lhs, rhs)
    }

    /// `h <> nil`, the guard of nearly every recursive tree procedure.
    pub fn not_nil(handle: &str) -> Expr {
        ne(var(handle), nil())
    }
}

/// Build statements.
pub mod stmt {
    use super::*;

    pub fn assign_var(dst: &str, rhs: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Var(dst.to_string()),
            rhs: Rhs::Expr(rhs),
            span: Span::DUMMY,
        }
    }

    /// `dst := nil`
    pub fn assign_nil(dst: &str) -> Stmt {
        assign_var(dst, Expr::Nil)
    }

    /// `dst := new()`
    pub fn assign_new(dst: &str) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Var(dst.to_string()),
            rhs: Rhs::New,
            span: Span::DUMMY,
        }
    }

    /// `dst := src`
    pub fn copy(dst: &str, src: &str) -> Stmt {
        assign_var(dst, Expr::var(src))
    }

    /// `dst := src.field`
    pub fn load(dst: &str, src: &str, field: Field) -> Stmt {
        assign_var(dst, expr::load(src, field))
    }

    /// `dst.field := src`
    pub fn store(dst: &str, field: Field, src: &str) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Field(HandlePath::var(dst), field),
            rhs: Rhs::Expr(Expr::var(src)),
            span: Span::DUMMY,
        }
    }

    /// `dst.value := e`
    pub fn store_value(dst: &str, e: Expr) -> Stmt {
        Stmt::Assign {
            lhs: LValue::Value(HandlePath::var(dst)),
            rhs: Rhs::Expr(e),
            span: Span::DUMMY,
        }
    }

    /// `dst := src.value`
    pub fn load_value(dst: &str, src: &str) -> Stmt {
        assign_var(dst, expr::value(src))
    }

    /// `proc(args)`
    pub fn call(proc: &str, args: Vec<Expr>) -> Stmt {
        Stmt::Call {
            proc: proc.to_string(),
            args,
            span: Span::DUMMY,
        }
    }

    pub fn if_then(cond: Expr, then_branch: Stmt) -> Stmt {
        Stmt::If {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: None,
            span: Span::DUMMY,
        }
    }

    pub fn block(stmts: Vec<Stmt>) -> Stmt {
        Stmt::block(stmts)
    }

    pub fn par(arms: Vec<Stmt>) -> Stmt {
        Stmt::par(arms)
    }
}

/// A fluent builder for procedures and functions.
pub struct ProcBuilder {
    name: Ident,
    params: Vec<Decl>,
    locals: Vec<Decl>,
    body: Vec<Stmt>,
    return_type: Option<TypeName>,
    return_var: Option<Ident>,
}

impl ProcBuilder {
    pub fn procedure(name: &str) -> Self {
        ProcBuilder {
            name: name.to_string(),
            params: Vec::new(),
            locals: Vec::new(),
            body: Vec::new(),
            return_type: None,
            return_var: None,
        }
    }

    pub fn function(name: &str, return_type: TypeName, return_var: &str) -> Self {
        let mut b = Self::procedure(name);
        b.return_type = Some(return_type);
        b.return_var = Some(return_var.to_string());
        b
    }

    pub fn param(mut self, name: &str, ty: TypeName) -> Self {
        self.params.push(Decl::new(name, ty));
        self
    }

    pub fn local(mut self, name: &str, ty: TypeName) -> Self {
        self.locals.push(Decl::new(name, ty));
        self
    }

    pub fn handle_locals(mut self, names: &[&str]) -> Self {
        for n in names {
            self.locals.push(Decl::new(*n, TypeName::Handle));
        }
        self
    }

    pub fn stmt(mut self, s: Stmt) -> Self {
        self.body.push(s);
        self
    }

    pub fn stmts(mut self, s: impl IntoIterator<Item = Stmt>) -> Self {
        self.body.extend(s);
        self
    }

    pub fn build(self) -> Procedure {
        Procedure {
            name: self.name,
            params: self.params,
            locals: self.locals,
            body: Stmt::block(self.body),
            return_type: self.return_type,
            return_var: self.return_var,
            span: Span::DUMMY,
        }
    }
}

/// A fluent builder for programs.
pub struct ProgramBuilder {
    name: Ident,
    procedures: Vec<Procedure>,
}

impl ProgramBuilder {
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            name: name.to_string(),
            procedures: Vec::new(),
        }
    }

    pub fn procedure(mut self, proc: Procedure) -> Self {
        self.procedures.push(proc);
        self
    }

    pub fn build(self) -> Program {
        Program {
            name: self.name,
            procedures: self.procedures,
            span: Span::DUMMY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::pretty_program;
    use crate::types::check_program;

    /// Rebuild the skeleton of the paper's `main` procedure via the builder
    /// and check it type checks and matches a parsed equivalent.
    #[test]
    fn builder_constructs_well_typed_program() {
        let main = ProcBuilder::procedure("main")
            .handle_locals(&["root", "lside", "rside"])
            .stmt(stmt::assign_new("root"))
            .stmt(stmt::load("lside", "root", Field::Left))
            .stmt(stmt::load("rside", "root", Field::Right))
            .stmt(stmt::call("add_n", vec![expr::var("lside"), expr::int(1)]))
            .stmt(stmt::call("add_n", vec![expr::var("rside"), expr::int(-1)]))
            .build();
        let add_n = ProcBuilder::procedure("add_n")
            .param("h", TypeName::Handle)
            .param("n", TypeName::Int)
            .handle_locals(&["l", "r"])
            .stmt(stmt::if_then(
                expr::not_nil("h"),
                stmt::block(vec![
                    stmt::store_value("h", expr::add(expr::value("h"), expr::var("n"))),
                    stmt::load("l", "h", Field::Left),
                    stmt::load("r", "h", Field::Right),
                    stmt::call("add_n", vec![expr::var("l"), expr::var("n")]),
                    stmt::call("add_n", vec![expr::var("r"), expr::var("n")]),
                ]),
            ))
            .build();
        let program = ProgramBuilder::new("built")
            .procedure(main)
            .procedure(add_n)
            .build();
        check_program(&program).expect("builder output type checks");
        let printed = pretty_program(&program);
        assert!(printed.contains("procedure add_n(h: handle; n: int)"));
        assert!(printed.contains("h.value := h.value + n"));
    }

    #[test]
    fn function_builder_sets_return() {
        let f = ProcBuilder::function("build", TypeName::Handle, "t")
            .param("depth", TypeName::Int)
            .handle_locals(&["t"])
            .stmt(stmt::assign_nil("t"))
            .build();
        assert!(f.is_function());
        assert_eq!(f.return_var.as_deref(), Some("t"));
    }

    #[test]
    fn parallel_builder() {
        let s = stmt::par(vec![
            stmt::load("l", "h", Field::Left),
            stmt::load("r", "h", Field::Right),
        ]);
        assert!(s.has_par());
        assert_eq!(
            crate::pretty::pretty_stmt(&s),
            "l := h.left || r := h.right"
        );
    }
}
