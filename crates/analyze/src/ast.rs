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

/// A module with a body (`mod m { … }`) — or the interior of an
/// item-position macro invocation (`proptest! { … }`) read as items,
/// named after the macro.
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
    /// (path segments, field and method names, macro raw idents), in
    /// source order. Only the kinds that carry names of their own are
    /// spelled out; the rest contribute their children's.
    pub fn collect_idents(&self, out: &mut Vec<String>) {
        match &self.kind {
            ExprKind::Path(segs) => out.extend(segs.iter().cloned()),
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
            // The raw bag covers the args, parsed or not.
            ExprKind::Macro {
                name, raw_idents, ..
            } => {
                out.push(name.clone());
                out.extend(raw_idents.iter().cloned());
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
            _ => self.for_each_child(&mut |c| c.collect_idents(out)),
        }
    }

    /// Visit this expression and every sub-expression, pre-order. Blocks
    /// (bodies, arms, closures, `let` initializers and `else` blocks) are
    /// traversed too, so one call covers a whole function body via
    /// [`Block::walk`]. Nested items are functions of their own and are
    /// not entered.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        self.for_each_child(&mut |c| c.walk(f));
    }

    /// The one statement of what an expression contains: calls `f` on
    /// each direct child — sub-expression or block — in source order.
    /// Every traversal in the analyzer descends through here (or through
    /// [`Stmt::for_each_child`]), so none can miss a position another
    /// sees.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        let mut expr = |e: &'a Expr| f(Node::Expr(e));
        match &self.kind {
            ExprKind::Path(_) | ExprKind::Lit | ExprKind::Str(_) | ExprKind::Unknown => {}
            ExprKind::Field(a, _)
            | ExprKind::Unary(a)
            | ExprKind::Cast(a, _)
            | ExprKind::Try(a)
            | ExprKind::Closure { body: a, .. } => expr(a),
            ExprKind::MethodCall { recv: a, args, .. } | ExprKind::Call { callee: a, args } => {
                expr(a);
                args.iter().for_each(expr);
            }
            ExprKind::Macro { args, .. } | ExprKind::Tuple(args) | ExprKind::Array(args) => {
                args.iter().for_each(expr)
            }
            ExprKind::Binary(_, a, b)
            | ExprKind::Assign { lhs: a, rhs: b }
            | ExprKind::Index { base: a, index: b } => {
                expr(a);
                expr(b);
            }
            ExprKind::StructLit { fields, base, .. } => {
                fields.iter().for_each(|(_, e)| expr(e));
                base.iter().for_each(|e| expr(e));
            }
            ExprKind::Return(a) | ExprKind::Break(a) => a.iter().for_each(|e| expr(e)),
            ExprKind::Range(a, b) => a.iter().chain(b).for_each(|e| expr(e)),
            ExprKind::If { cond, then, els } => {
                expr(cond);
                f(Node::Block(then));
                if let Some(e) = els {
                    f(Node::Expr(e));
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                expr(scrutinee);
                for a in arms {
                    a.guard.iter().for_each(&mut expr);
                    expr(&a.body);
                }
            }
            ExprKind::While { cond: a, body } | ExprKind::ForLoop { iter: a, body, .. } => {
                expr(a);
                f(Node::Block(body));
            }
            ExprKind::Loop(b) | ExprKind::Block(b) => f(Node::Block(b)),
        }
    }
}

/// A direct child of an expression, statement or block.
#[derive(Clone, Copy)]
pub enum Node<'a> {
    Expr(&'a Expr),
    Block(&'a Block),
    /// An item nested in a body: a unit of its own to every pass, found
    /// by [`for_each_item`].
    Item(&'a Item),
}

impl<'a> Node<'a> {
    pub fn for_each_child(self, f: &mut impl FnMut(Node<'a>)) {
        match self {
            Node::Expr(e) => e.for_each_child(f),
            Node::Block(b) => b.for_each_child(f),
            Node::Item(_) => {}
        }
    }

    fn collect_idents(self, out: &mut Vec<String>) {
        match self {
            Node::Expr(e) => e.collect_idents(out),
            _ => self.for_each_child(&mut |c| c.collect_idents(out)),
        }
    }

    fn walk(self, f: &mut impl FnMut(&Expr)) {
        match self {
            Node::Expr(e) => e.walk(f),
            _ => self.for_each_child(&mut |c| c.walk(f)),
        }
    }
}

impl Stmt {
    /// A statement's children in source order: a `let`'s initializer and
    /// `else` block, an expression, or a nested item.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        match self {
            Stmt::Let {
                init, else_block, ..
            } => {
                init.iter().for_each(|e| f(Node::Expr(e)));
                else_block.iter().for_each(|b| f(Node::Block(b)));
            }
            Stmt::Expr { expr, .. } => f(Node::Expr(expr)),
            Stmt::Item(item) => f(Node::Item(item)),
            Stmt::Empty => {}
        }
    }
}

impl Block {
    /// Every statement's children, in source order.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        self.stmts.iter().for_each(|s| s.for_each_child(f));
    }

    /// See [`Expr::collect_idents`].
    pub fn collect_idents(&self, out: &mut Vec<String>) {
        Node::Block(self).collect_idents(out);
    }

    /// Visit every expression in the block, pre-order (see [`Expr::walk`]).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        Node::Block(self).walk(f);
    }
}

/// Visits every item under `items`, pre-order: through modules, and
/// through items nested in the body of any `fn` (free, or in an `impl` or
/// `trait`). The flat view every whole-file pass starts from, so a `fn`
/// inside a body is analysed like any other.
pub fn for_each_item<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item)) {
    fn nested<'a>(n: Node<'a>, f: &mut impl FnMut(&'a Item)) {
        match n {
            Node::Item(item) => for_each_item(std::slice::from_ref(item), f),
            _ => n.for_each_child(&mut |c| nested(c, f)),
        }
    }
    for item in items {
        f(item);
        match item {
            Item::Mod(md) => for_each_item(&md.items, f),
            Item::Fn(fun) => nested(Node::Block(&fun.body), f),
            Item::Impl(ib) => ib
                .fns
                .iter()
                .for_each(|fun| nested(Node::Block(&fun.body), f)),
            Item::Struct(_) | Item::Other => {}
        }
    }
}
