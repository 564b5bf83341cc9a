//! A lossy-but-faithful Rust AST for the analyzer.
//!
//! The parser (`parser.rs`) produces these nodes from the comment-free
//! token stream. "Lossy" means: anything the taint and constant-time
//! passes don't need (lifetimes, generic bounds, visibility, attributes
//! other than `#[test]`/`#[cfg(test)]`/`#[derive(..)]`) is dropped or
//! flattened, and any construct the parser cannot make sense of becomes
//! [`ExprKind::Unknown`] rather than an error. "Faithful" means: for the
//! constructs the passes *do* reason about — items, fn signatures and
//! bodies, `let`/`match` bindings, field accesses, closures, method and
//! free calls — the tree mirrors real syntax, so the passes never have to
//! re-guess structure from adjacency.

/// A type, flattened to what the passes need: a head identifier, its
/// generic/element arguments, and the bag of every identifier mentioned
/// anywhere inside (for cheap "does this type mention `Secret`" checks).
///
/// `&mut std::vec::Vec<Secret<R64>>` ⇒ head `Vec`, one arg with head
/// `Secret`, idents `[std, vec, Vec, Secret, R64]`. Tuples use head `""`
/// with one arg per element; slices/arrays use head `""` with the element
/// as the single arg.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ty {
    pub head: String,
    pub args: Vec<Ty>,
    pub idents: Vec<String>,
}

impl Ty {
    pub fn simple(head: &str) -> Ty {
        Ty {
            head: head.to_string(),
            args: Vec::new(),
            idents: vec![head.to_string()],
        }
    }

    /// Whether `name` appears anywhere in the type expression.
    pub fn mentions(&self, name: &str) -> bool {
        self.idents.iter().any(|s| s == name)
    }

    pub fn is_unknown(&self) -> bool {
        self.head.is_empty() && self.args.is_empty()
    }

    /// The element type of a container/wrapper, if this type is one the
    /// passes understand (`Vec<T>`, `[T]`, `Option<T>`, `Box<T>`, …).
    pub fn elem(&self) -> Option<&Ty> {
        match self.head.as_str() {
            "Vec" | "VecDeque" | "Box" | "Rc" | "Arc" | "Option" | "Some" | "Cow" => {
                self.args.first()
            }
            // Slice `[T]` / array `[T; N]`: head "" with exactly one arg.
            "" if self.args.len() == 1 => self.args.first(),
            _ => None,
        }
    }

    /// Tuple element `i`, when this is a tuple type.
    pub fn tuple_elem(&self, i: usize) -> Option<&Ty> {
        if self.head.is_empty() && self.args.len() >= 2 {
            self.args.get(i)
        } else {
            None
        }
    }
}

/// Top-level or nested item.
#[derive(Debug)]
pub enum Item {
    Fn(Fun),
    Struct(StructDef),
    Impl(ImplBlock),
    Mod(ModDef),
    /// `use`, `const`, `static`, `type`, `macro_rules!`, `extern` blocks —
    /// parsed past, not modeled.
    Other,
}

/// A `struct` or `enum` definition with the fields the taint pass needs.
#[derive(Debug)]
pub struct StructDef {
    pub name: String,
    /// Named fields (`name: Ty`). Tuple-struct fields use `"0"`, `"1"`, …
    /// For enums, the union of every variant's fields.
    pub fields: Vec<(String, Ty)>,
    /// Idents inside `#[derive(...)]`.
    pub derives: Vec<String>,
    pub is_enum: bool,
    pub line: usize,
}

/// An `impl` block (inherent or trait) or a `trait` definition.
#[derive(Debug)]
pub struct ImplBlock {
    /// Head of the self type (`Secret` for `impl<T> Secret<T>`); the trait
    /// name itself for `trait` definitions with default bodies.
    pub self_ty: String,
    /// Trait being implemented, if any.
    pub trait_name: Option<String>,
    pub fns: Vec<Fun>,
}

/// A module with a body (`mod m { … }`).
#[derive(Debug)]
pub struct ModDef {
    pub name: String,
    pub cfg_test: bool,
    pub items: Vec<Item>,
}

/// One function: signature + body.
#[derive(Debug)]
pub struct Fun {
    pub name: String,
    /// `(pattern-root-name, type)`; `self` appears as `("self", Ty-of-impl)`
    /// only once flattened by the passes — here its type is empty.
    pub params: Vec<(Pat, Ty)>,
    pub ret: Ty,
    pub body: Block,
    pub line: usize,
    pub end_line: usize,
    pub is_test: bool,
    pub has_self: bool,
}

/// `{ stmt* }` — the value of the block is its tail expression, if any.
#[derive(Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// The tail expression (last statement, expression, no semicolon).
    pub fn tail(&self) -> Option<&Expr> {
        match self.stmts.last() {
            Some(Stmt::Expr { expr, semi: false }) => Some(expr),
            _ => None,
        }
    }
}

#[derive(Debug)]
pub enum Stmt {
    Let {
        pat: Pat,
        ty: Option<Ty>,
        init: Option<Expr>,
        /// `let … else { … }` diverging block.
        else_block: Option<Block>,
        line: usize,
    },
    Expr {
        expr: Expr,
        semi: bool,
    },
    /// Nested item (fn/struct/impl/mod defined inside a body).
    Item(Box<Item>),
    Empty,
}

/// Patterns, to the depth bindings need.
#[derive(Debug)]
pub enum Pat {
    /// A binding (`x`, `mut x`, `ref x`).
    Ident(String),
    /// `(a, b)` — positional.
    Tuple(Vec<Pat>),
    /// `Path { field: pat, field, .. }` — (field-name, pattern) pairs.
    Struct(String, Vec<(String, Pat)>),
    /// `Path(a, b)` — tuple-struct / enum-variant destructuring.
    TupleStruct(String, Vec<Pat>),
    Wild,
    /// Literals, paths (`None`), ranges, slices — no bindings extracted
    /// beyond those nested in `Or`/slice elements, which the parser
    /// flattens into `Tuple`.
    Other,
}

impl Pat {
    /// Every binding name introduced by the pattern.
    pub fn bindings(&self, out: &mut Vec<String>) {
        match self {
            Pat::Ident(n) => out.push(n.clone()),
            Pat::Tuple(ps) | Pat::TupleStruct(_, ps) => {
                for p in ps {
                    p.bindings(out);
                }
            }
            Pat::Struct(_, fs) => {
                for (_, p) in fs {
                    p.bindings(out);
                }
            }
            Pat::Wild | Pat::Other => {}
        }
    }
}

/// Binary operators the passes distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
}

impl BinOp {
    /// Comparison operators (the constant-time lint denies these on
    /// secret operands).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }
}

/// One `match` arm.
#[derive(Debug)]
pub struct Arm {
    pub pat: Pat,
    pub guard: Option<Expr>,
    pub body: Expr,
}

/// Expressions. Every variant carries the 1-based line of its first
/// token via the wrapper [`Expr`].
#[derive(Debug)]
pub struct Expr {
    pub line: usize,
    pub kind: ExprKind,
}

#[derive(Debug)]
pub enum ExprKind {
    /// `a::b::c` — path segments (turbofish dropped). A single lowercase
    /// segment is usually a local variable.
    Path(Vec<String>),
    /// Numeric/char/bool literal.
    Lit,
    /// String literal (text retained for inline-capture scanning).
    Str(String),
    /// `base.field` / `base.0`.
    Field(Box<Expr>, String),
    /// `recv.name(args…)`.
    MethodCall {
        recv: Box<Expr>,
        name: String,
        args: Vec<Expr>,
    },
    /// `callee(args…)`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    /// `name!(args…)`. `raw_idents` is every identifier token inside the
    /// delimiters (robust even when an arg fails to parse), `strs` every
    /// string-literal token.
    Macro {
        name: String,
        args: Vec<Expr>,
        raw_idents: Vec<String>,
        strs: Vec<String>,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        params: Vec<(Pat, Ty)>,
        body: Box<Expr>,
    },
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `-x`, `!x`, `*x`, `&x`.
    Unary(Box<Expr>),
    /// `x as T`.
    Cast(Box<Expr>, Ty),
    /// `base[index]`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    /// `Path { field: expr, … }` — (path-head, fields, functional-update
    /// base).
    StructLit {
        path: String,
        fields: Vec<(String, Expr)>,
        base: Option<Box<Expr>>,
    },
    Tuple(Vec<Expr>),
    Array(Vec<Expr>),
    If {
        cond: Box<Expr>,
        then: Block,
        els: Option<Box<Expr>>,
    },
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Arm>,
    },
    While {
        cond: Box<Expr>,
        body: Block,
    },
    ForLoop {
        pat: Pat,
        iter: Box<Expr>,
        body: Block,
    },
    Loop(Block),
    Block(Block),
    Return(Option<Box<Expr>>),
    Break(Option<Box<Expr>>),
    /// `lhs = rhs` and compound assignments.
    Assign {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `a..b` / `a..=b` (either side optional).
    Range(Option<Box<Expr>>, Option<Box<Expr>>),
    /// `x?`.
    Try(Box<Expr>),
    /// Reference the parser could not model; opaque to the passes.
    Unknown,
}

impl Expr {
    pub fn unknown(line: usize) -> Expr {
        Expr {
            line,
            kind: ExprKind::Unknown,
        }
    }

    /// The dotted place this expression names, if it is a pure
    /// local/field projection: `x` ⇒ `x`, `pkt.shares` ⇒ `pkt.shares`,
    /// `pair.1` ⇒ `pair.1`. References and parens are transparent.
    pub fn place(&self) -> Option<String> {
        match &self.kind {
            ExprKind::Path(segs) if segs.len() == 1 => segs.first().cloned(),
            ExprKind::Field(base, name) => {
                let mut p = base.place()?;
                p.push('.');
                p.push_str(name);
                Some(p)
            }
            ExprKind::Unary(inner) | ExprKind::Try(inner) => inner.place(),
            _ => None,
        }
    }

    /// Collect every identifier mentioned anywhere under this expression
    /// (path segments, field and method names, macro raw idents).
    pub fn collect_idents(&self, out: &mut Vec<String>) {
        match &self.kind {
            ExprKind::Path(segs) => out.extend(segs.iter().cloned()),
            ExprKind::Lit | ExprKind::Str(_) | ExprKind::Unknown => {}
            ExprKind::Field(b, name) => {
                b.collect_idents(out);
                out.push(name.clone());
            }
            ExprKind::MethodCall { recv, name, args } => {
                recv.collect_idents(out);
                out.push(name.clone());
                for a in args {
                    a.collect_idents(out);
                }
            }
            ExprKind::Call { callee, args } => {
                callee.collect_idents(out);
                for a in args {
                    a.collect_idents(out);
                }
            }
            ExprKind::Macro {
                name, raw_idents, ..
            } => {
                out.push(name.clone());
                out.extend(raw_idents.iter().cloned());
            }
            ExprKind::Closure { body, .. } => body.collect_idents(out),
            ExprKind::Binary(_, a, b) | ExprKind::Assign { lhs: a, rhs: b } => {
                a.collect_idents(out);
                b.collect_idents(out);
            }
            ExprKind::Unary(a) | ExprKind::Cast(a, _) | ExprKind::Try(a) => a.collect_idents(out),
            ExprKind::Index { base, index } => {
                base.collect_idents(out);
                index.collect_idents(out);
            }
            ExprKind::StructLit { path, fields, base } => {
                out.push(path.clone());
                for (n, e) in fields {
                    out.push(n.clone());
                    e.collect_idents(out);
                }
                if let Some(b) = base {
                    b.collect_idents(out);
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for e in es {
                    e.collect_idents(out);
                }
            }
            ExprKind::If { cond, then, els } => {
                cond.collect_idents(out);
                block_idents(then, out);
                if let Some(e) = els {
                    e.collect_idents(out);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                scrutinee.collect_idents(out);
                for a in arms {
                    if let Some(g) = &a.guard {
                        g.collect_idents(out);
                    }
                    a.body.collect_idents(out);
                }
            }
            ExprKind::While { cond, body } => {
                cond.collect_idents(out);
                block_idents(body, out);
            }
            ExprKind::ForLoop { iter, body, .. } => {
                iter.collect_idents(out);
                block_idents(body, out);
            }
            ExprKind::Loop(b) | ExprKind::Block(b) => block_idents(b, out),
            ExprKind::Return(e) | ExprKind::Break(e) => {
                if let Some(e) = e {
                    e.collect_idents(out);
                }
            }
            ExprKind::Range(a, b) => {
                if let Some(a) = a {
                    a.collect_idents(out);
                }
                if let Some(b) = b {
                    b.collect_idents(out);
                }
            }
        }
    }
}

fn block_idents(b: &Block, out: &mut Vec<String>) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    e.collect_idents(out);
                }
            }
            Stmt::Expr { expr, .. } => expr.collect_idents(out),
            Stmt::Item(_) | Stmt::Empty => {}
        }
    }
}

impl Expr {
    /// Visit this expression and every sub-expression, pre-order. Blocks
    /// (bodies, arms, closures, `let` initializers) are traversed too, so
    /// one call covers a whole function body via [`Block::walk`].
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Path(_) | ExprKind::Lit | ExprKind::Str(_) | ExprKind::Unknown => {}
            ExprKind::Field(b, _)
            | ExprKind::Unary(b)
            | ExprKind::Cast(b, _)
            | ExprKind::Try(b) => b.walk(f),
            ExprKind::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Macro { args, .. } | ExprKind::Tuple(args) | ExprKind::Array(args) => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Closure { body, .. } => body.walk(f),
            ExprKind::Binary(_, a, b) | ExprKind::Assign { lhs: a, rhs: b } => {
                a.walk(f);
                b.walk(f);
            }
            ExprKind::Index { base, index } => {
                base.walk(f);
                index.walk(f);
            }
            ExprKind::StructLit { fields, base, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
                if let Some(b) = base {
                    b.walk(f);
                }
            }
            ExprKind::If { cond, then, els } => {
                cond.walk(f);
                then.walk(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                scrutinee.walk(f);
                for a in arms {
                    if let Some(g) = &a.guard {
                        g.walk(f);
                    }
                    a.body.walk(f);
                }
            }
            ExprKind::While { cond, body } => {
                cond.walk(f);
                body.walk(f);
            }
            ExprKind::ForLoop { iter, body, .. } => {
                iter.walk(f);
                body.walk(f);
            }
            ExprKind::Loop(b) | ExprKind::Block(b) => b.walk(f),
            ExprKind::Return(e) | ExprKind::Break(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
            ExprKind::Range(a, b) => {
                if let Some(a) = a {
                    a.walk(f);
                }
                if let Some(b) = b {
                    b.walk(f);
                }
            }
        }
    }
}

impl Block {
    /// Visit every expression in the block, pre-order (see [`Expr::walk`]).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        for s in &self.stmts {
            match s {
                Stmt::Let {
                    init, else_block, ..
                } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                    if let Some(b) = else_block {
                        b.walk(f);
                    }
                }
                Stmt::Expr { expr, .. } => expr.walk(f),
                Stmt::Item(_) | Stmt::Empty => {}
            }
        }
    }
}
