//! Hand-rolled recursive-descent parser from the lexer's token stream to
//! the lossy AST in `ast.rs`.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never loop, never run past a closer.** Every
//!    `(…)`/`[…]`/`{…}` group is matched once (`Parser::group`) and
//!    parsed by a sub-parser that holds exactly its interior, so a
//!    construct the parser gets wrong can garble at most the group it
//!    sits in — never the enclosing item or the rest of the file. One
//!    loop (`Parser::list`) owns element separators and the progress
//!    guard. Malformed input degrades to [`ExprKind::Unknown`], not an
//!    error. The analyzer is itself a panic-free gate.
//! 2. **Faithful where the passes look.** Items, signatures, bodies,
//!    `let`/`match` bindings, field projections, closures, and calls are
//!    modeled structurally.
//! 3. **Lossy everywhere else.** Lifetimes, bounds, visibility, and
//!    attribute contents (beyond `test`/`cfg(test)`/`derive`) are
//!    skipped. Known ambiguities inherited from a single-char punct
//!    stream (`a | |x| x`, `a < <T>::f()`) resolve toward the common
//!    reading.

use crate::ast::{
    Arm, BinOp, Block, Expr, ExprKind, Fun, ImplBlock, Item, ModDef, Pat, Stmt, StructDef, Ty,
};
use crate::lexer::{Tok, TokKind};

/// Parses a comment-free token stream into items.
pub fn parse_items(code: &[Tok]) -> Vec<Item> {
    let mut p = Parser {
        t: code,
        pos: 0,
        end_line: code.last().map_or(1, |t| t.line),
        in_test: false,
        stmt_start: usize::MAX,
    };
    p.items()
}

/// Operators spelled by more than one punct token, longest first.
/// [`Parser::punct`] reads the longest one the adjacent tokens spell
/// (maximal munch), so `-` is never the head of `->` or `-=`, `<` never
/// that of `<<`, `=` never that of `==` or `=>`, `.` never that of `..`.
const MULTI: [&str; 23] = [
    "<<=", ">>=", "..=", "->", "=>", "::", "..", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Binary operators with their precedence (higher binds tighter); all
/// are parsed left-associative.
const BINARY: [(&str, BinOp, u8); 18] = [
    ("||", BinOp::Or, 1),
    ("&&", BinOp::And, 2),
    ("==", BinOp::Eq, 3),
    ("!=", BinOp::Ne, 3),
    ("<", BinOp::Lt, 3),
    (">", BinOp::Gt, 3),
    ("<=", BinOp::Le, 3),
    (">=", BinOp::Ge, 3),
    ("|", BinOp::BitOr, 4),
    ("^", BinOp::BitXor, 5),
    ("&", BinOp::BitAnd, 6),
    ("<<", BinOp::Shl, 7),
    (">>", BinOp::Shr, 7),
    ("+", BinOp::Add, 8),
    ("-", BinOp::Sub, 8),
    ("*", BinOp::Mul, 9),
    ("/", BinOp::Div, 9),
    ("%", BinOp::Rem, 9),
];

const ASSIGN: [&str; 11] = [
    "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
];

#[derive(Default)]
struct Attrs {
    test: bool,
    cfg_test: bool,
    derives: Vec<String>,
}

struct Parser<'a> {
    /// Exactly the tokens this parser may read: a whole file, or the
    /// interior of one delimiter group.
    t: &'a [Tok],
    pos: usize,
    /// Line of the group's closer (of the last token, for a file or an
    /// unclosed group): where a construct the end of the slice cut short
    /// is reported.
    end_line: usize,
    /// Inside a `#[test]` fn or `#[cfg(test)]` module: items nested in
    /// a body inherit it.
    in_test: bool,
    /// Position of the first token of the statement or match-arm body
    /// being parsed: a block-like expression starting there ends at its
    /// brace (rustc's rule), so a following `(`/`[` starts new syntax.
    stmt_start: usize,
}

fn is_open(t: &Tok) -> bool {
    t.is_punct('(') || t.is_punct('[') || t.is_punct('{')
}

/// Whether `e` is an expression that ends at a closing brace.
fn block_like(e: &Expr) -> bool {
    matches!(
        e.kind,
        ExprKind::If { .. }
            | ExprKind::Match { .. }
            | ExprKind::While { .. }
            | ExprKind::ForLoop { .. }
            | ExprKind::Loop(_)
            | ExprKind::Block(_)
    )
}

impl<'a> Parser<'a> {
    // ----- token helpers ---------------------------------------------

    fn tok(&self) -> Option<&'a Tok> {
        self.t.get(self.pos)
    }

    fn nth(&self, k: usize) -> Option<&'a Tok> {
        self.t.get(self.pos + k)
    }

    fn is_p(&self, c: char) -> bool {
        self.tok().is_some_and(|t| t.is_punct(c))
    }

    fn nth_is_p(&self, k: usize, c: char) -> bool {
        self.nth(k).is_some_and(|t| t.is_punct(c))
    }

    fn is_id(&self, s: &str) -> bool {
        self.tok().is_some_and(|t| t.is_ident(s))
    }

    fn is_kind(&self, kind: TokKind) -> bool {
        self.tok().is_some_and(|t| t.kind == kind)
    }

    fn eat_kind(&mut self, kind: TokKind) -> bool {
        let hit = self.is_kind(kind);
        self.pos += usize::from(hit);
        hit
    }

    fn line(&self) -> usize {
        self.tok().map_or(self.end_line, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat_p(&mut self, c: char) -> bool {
        let hit = self.is_p(c);
        self.pos += usize::from(hit);
        hit
    }

    fn eat_id(&mut self, s: &str) -> bool {
        let hit = self.is_id(s);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes an identifier and returns its text (`""` if none).
    fn eat_ident(&mut self) -> String {
        match self.tok().filter(|t| t.kind == TokKind::Ident) {
            Some(t) => {
                self.bump();
                t.text.clone()
            }
            None => String::new(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.t.len()
    }

    /// The operator at `pos`: the longest [`MULTI`] entry the adjacent
    /// punct tokens spell, else the single punct (`""` for a non-punct).
    fn punct(&self) -> &'a str {
        let Some(t) = self.tok().filter(|t| t.kind == TokKind::Punct) else {
            return "";
        };
        let spells = |s: &str| s.chars().enumerate().all(|(k, c)| self.nth_is_p(k, c));
        MULTI
            .iter()
            .find(|m| spells(m))
            .map_or(t.text.as_str(), |m| m)
    }

    fn op(&self, s: &str) -> bool {
        self.punct() == s
    }

    fn eat_op(&mut self, s: &str) -> bool {
        let hit = self.op(s);
        if hit {
            self.pos += s.len();
        }
        hit
    }

    fn at_range(&self) -> bool {
        self.op("..") || self.op("..=")
    }

    fn eat_range(&mut self) -> bool {
        self.eat_op("..") || self.eat_op("..=")
    }

    // ----- groups and lists ------------------------------------------

    fn at_open(&self) -> bool {
        self.tok().is_some_and(is_open)
    }

    /// A parser over `t`, inheriting the test scope.
    fn sub(&self, t: &'a [Tok], end_line: usize) -> Parser<'a> {
        Parser {
            t,
            pos: 0,
            end_line,
            in_test: self.in_test,
            stmt_start: usize::MAX,
        }
    }

    /// Ends a group that opened at `open` and whose closer is at `pos`
    /// (or that the end of the slice cut short): steps past the closer
    /// and returns a parser over exactly the interior.
    fn interior(&mut self, open: usize) -> Parser<'a> {
        let inner = self.sub(self.t.get(open + 1..self.pos).unwrap_or(&[]), self.line());
        self.bump();
        inner
    }

    /// The one place a `(…)`/`[…]`/`{…}` group is matched: `pos` sits on
    /// the opener; steps past the whole group and returns a parser over
    /// its interior. All three bracket kinds count, so a `)` inside `{}`
    /// cannot close the wrong group. Not on an opener: one token, empty
    /// interior.
    fn group(&mut self) -> Parser<'a> {
        let open = self.pos;
        let mut depth = 0usize;
        while let Some(t) = self.tok() {
            match t.text.as_bytes() {
                [b'(' | b'[' | b'{'] if t.kind == TokKind::Punct => depth += 1,
                [b')' | b']' | b'}'] if t.kind == TokKind::Punct => depth = depth.saturating_sub(1),
                _ => {}
            }
            if depth == 0 {
                break;
            }
            self.bump();
        }
        self.interior(open)
    }

    /// A `<…>` generics list as a group; `pos` sits on `<`. Angle
    /// brackets are not lexical delimiters (`>` is also an operator), so
    /// they are matched by the type grammar's rules: the `>` of `->`
    /// closes nothing, and bracket groups (const-generic braces, `Fn(..)`
    /// sugar) are stepped over whole.
    fn angles(&mut self) -> Parser<'a> {
        let open = self.pos;
        let mut depth = 0usize;
        while let Some(t) = self.tok() {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth = depth.saturating_sub(1);
            }
            if depth == 0 {
                break;
            }
            self.skip_one(true);
        }
        self.interior(open)
    }

    /// A closure's `|…|` parameter list as a group; `pos` sits on the
    /// first `|`. Closes at the next `|` outside any bracket group.
    fn bars(&mut self) -> Parser<'a> {
        let open = self.pos;
        self.bump();
        self.skip_to("|", false);
        self.interior(open)
    }

    /// Steps over one token, a whole bracket group at a time; in type
    /// position also over a whole `->`.
    fn skip_one(&mut self, types: bool) {
        if types && self.op("->") {
            self.pos += 2;
        } else if self.at_open() {
            self.group();
        } else {
            self.bump();
        }
    }

    /// Skips to the first punct in `stops` outside any group (not
    /// consumed), or to the end of the slice. In type position `<…>`
    /// lists are groups too.
    fn skip_to(&mut self, stops: &str, types: bool) {
        while let Some(t) = self.tok() {
            if t.kind == TokKind::Punct && stops.contains(t.text.as_str()) {
                return;
            }
            if types && t.is_punct('<') {
                self.angles();
            } else {
                self.skip_one(types);
            }
        }
    }

    /// Parses the rest of the slice as a list: `elem` once per element,
    /// then at most one separator from `seps`. The one loop that owns the
    /// progress guard — an element that consumes nothing costs one
    /// skipped token, never a stall. Returns the separators seen.
    fn list(&mut self, seps: &str, mut elem: impl FnMut(&mut Self)) -> usize {
        let mut n = 0;
        while !self.at_end() {
            let before = self.pos;
            elem(self);
            n += usize::from(seps.chars().any(|c| self.eat_p(c)));
            if self.pos == before {
                self.bump();
            }
        }
        n
    }

    /// The text of every remaining token of `kind`, at any depth.
    fn texts(&self, kind: TokKind) -> Vec<String> {
        let rest = self.t.get(self.pos..).unwrap_or(&[]);
        let of_kind = rest.iter().filter(|t| t.kind == kind);
        of_kind.map(|t| t.text.clone()).collect()
    }

    /// Consumes `#[...]` / `#![...]` attributes, classifying the bits the
    /// passes care about.
    fn attrs(&mut self) -> Attrs {
        let mut out = Attrs::default();
        while self.is_p('#') {
            let k = if self.nth_is_p(1, '!') { 2 } else { 1 };
            if !self.nth_is_p(k, '[') {
                break;
            }
            self.pos += k;
            let ids = self.group().texts(TokKind::Ident);
            let has = |s: &str| ids.iter().any(|i| i == s);
            if has("derive") {
                out.derives
                    .extend(ids.iter().filter(|i| *i != "derive").cloned());
            }
            if has("test") {
                out.test = true;
                out.cfg_test |= has("cfg");
            }
        }
        out
    }

    /// Skips `pub` / `pub(crate)`.
    fn vis(&mut self) {
        if self.eat_id("pub") && self.is_p('(') {
            self.group();
        }
    }

    // ----- types -----------------------------------------------------

    /// Parses a type, stopping at any token that cannot continue one
    /// (`,` `)` `;` `=` `>` `{` `]` `where` `for` …).
    fn ty(&mut self) -> Ty {
        let mut ty = self.ty_component();
        // Trait bounds: `A + B + 'a`.
        while self.eat_p('+') {
            if !self.eat_kind(TokKind::Lifetime) {
                ty.idents.extend(self.ty_component().idents);
            }
        }
        ty
    }

    /// `: Ty`, or the unknown type.
    fn ascription(&mut self) -> Ty {
        if self.eat_p(':') {
            self.ty()
        } else {
            Ty::default()
        }
    }

    /// `-> Ty`, or the unknown type.
    fn ret_ty(&mut self) -> Ty {
        if self.eat_op("->") {
            self.ty()
        } else {
            Ty::default()
        }
    }

    fn ty_component(&mut self) -> Ty {
        // Prefixes that don't change the head.
        loop {
            if self.eat_p('&') {
                self.eat_kind(TokKind::Lifetime);
                self.eat_id("mut");
            } else if self.eat_p('*') {
                let _ = self.eat_id("const") || self.eat_id("mut");
            } else if self.is_id("for") && self.nth_is_p(1, '<') {
                self.bump();
                self.angles();
            } else if !(self.eat_id("dyn")
                || self.eat_id("impl")
                || self.eat_kind(TokKind::Lifetime))
            {
                break;
            }
        }
        if self.is_p('(') {
            // Tuple (or parenthesized) type.
            let mut args = Vec::new();
            let commas = self.group().list(",", |p| args.push(p.ty()));
            if args.len() == 1 && commas == 0 {
                return args.pop().unwrap_or_default();
            }
            let idents = args.iter().flat_map(|a| a.idents.iter().cloned()).collect();
            return Ty {
                head: String::new(),
                args,
                idents,
            };
        }
        if self.is_p('[') {
            // Slice / array; the idents of a const length expression count.
            let mut inner = self.group();
            let el = inner.ty();
            let mut idents = el.idents.clone();
            idents.extend(inner.texts(TokKind::Ident));
            return Ty {
                head: String::new(),
                args: vec![el],
                idents,
            };
        }
        if self.eat_id("fn") {
            // Fn-pointer type.
            let mut idents = vec!["fn".to_string()];
            if self.is_p('(') {
                idents.extend(self.group().texts(TokKind::Ident));
            }
            idents.extend(self.ret_ty().idents);
            return Ty {
                head: "fn".to_string(),
                args: Vec::new(),
                idents,
            };
        }
        // Path type: `a::b::C<...>`, `Fn(..) -> R` sugar on any segment.
        let mut ty = Ty::default();
        self.eat_op("::");
        while let Some(t) = self.tok().filter(|t| t.kind == TokKind::Ident) {
            if t.text == "where" || (t.text == "for" && !self.nth_is_p(1, '<')) || t.text == "as" {
                break;
            }
            ty.head = t.text.clone();
            ty.idents.push(t.text.clone());
            self.bump();
            if self.is_p('(') {
                // `Fn(args) -> Ret` sugar.
                ty.idents.extend(self.group().texts(TokKind::Ident));
                if self.op("->") {
                    let ret = self.ret_ty();
                    ty.idents.extend(ret.idents.iter().cloned());
                    ty.args.push(ret);
                }
                break;
            }
            if self.is_p('<') {
                self.generic_args(&mut ty);
            }
            if !self.eat_op("::") {
                break;
            }
            // A later segment's generic args win; reset.
            ty.args.clear();
        }
        ty
    }

    /// Parses `<...>` generic arguments into `ty` (positional type args,
    /// and every ident seen); `pos` sits on `<`.
    fn generic_args(&mut self, ty: &mut Ty) {
        ty.args.clear();
        self.angles().list(",", |p| {
            let Some(t) = p.tok() else { return };
            if t.kind == TokKind::Ident && p.nth_is_p(1, '=') {
                // Associated binding `Item = T`.
                ty.idents.push(t.text.clone());
                p.pos += 2;
                ty.idents.extend(p.ty().idents);
            } else if t.is_punct('{') {
                // Const-generic expression.
                ty.idents.extend(p.group().texts(TokKind::Ident));
            } else if matches!(t.kind, TokKind::Lifetime | TokKind::Number)
                || t.is_ident("true")
                || t.is_ident("false")
            {
                p.bump();
            } else {
                let arg = p.ty();
                ty.idents.extend(arg.idents.iter().cloned());
                ty.args.push(arg);
            }
        });
    }

    // ----- patterns --------------------------------------------------

    fn pat(&mut self) -> Pat {
        let first = self.pat_single();
        if !self.op("|") {
            return first;
        }
        // Or-pattern: union of alternatives' bindings.
        let mut alts = vec![first];
        while self.eat_op("|") {
            alts.push(self.pat_single());
        }
        Pat::Tuple(alts)
    }

    fn pat_single(&mut self) -> Pat {
        while self.eat_id("ref") || self.eat_id("mut") || self.eat_id("box") || self.eat_p('&') {}
        let Some(t) = self.tok() else {
            return Pat::Other;
        };
        match t.kind {
            TokKind::Ident if t.text == "_" => {
                self.bump();
                Pat::Wild
            }
            TokKind::Number | TokKind::Str | TokKind::Char => {
                self.bump();
                self.pat_range_tail();
                Pat::Other
            }
            TokKind::Punct if t.is_punct('-') => {
                self.bump();
                self.eat_kind(TokKind::Number);
                self.pat_range_tail();
                Pat::Other
            }
            TokKind::Punct if t.is_punct('(') || t.is_punct('[') => Pat::Tuple(self.pat_list()),
            TokKind::Punct if t.is_punct('.') => {
                // `..` rest pattern.
                self.bump();
                self.eat_p('.');
                self.eat_p('=');
                Pat::Other
            }
            TokKind::Ident => self.pat_path(),
            _ => {
                self.bump();
                Pat::Other
            }
        }
    }

    /// A pattern that starts with a path: binding, unit/tuple/struct
    /// variant, or a range bound.
    fn pat_path(&mut self) -> Pat {
        let mut name = self.eat_ident();
        let mut single = true;
        while self.eat_op("::") {
            if self.is_p('<') {
                self.angles();
            }
            if !self.is_kind(TokKind::Ident) {
                break;
            }
            name = self.eat_ident();
            single = false;
        }
        if self.is_p('(') {
            return Pat::TupleStruct(name, self.pat_list());
        }
        if self.is_p('{') {
            let mut fields = Vec::new();
            self.group().list(",", |p| {
                if p.eat_p('.') {
                    p.eat_p('.'); // `..` rest
                } else if let Some(f) = p.tok().filter(|f| f.kind == TokKind::Ident) {
                    p.bump();
                    let sub = if p.eat_p(':') {
                        p.pat()
                    } else {
                        Pat::Ident(f.text.clone())
                    };
                    fields.push((f.text.clone(), sub));
                }
            });
            return Pat::Struct(name, fields);
        }
        // `n @ sub-pattern` keeps the binding.
        if single && self.eat_p('@') {
            let _ = self.pat_single();
            return Pat::Ident(name);
        }
        if !single || self.at_range() {
            self.pat_range_tail();
            return Pat::Other;
        }
        // Heuristic: lowercase-initial single segment binds;
        // uppercase is a unit variant / const (`None`, `MAX`).
        if name.starts_with(|c: char| c.is_lowercase() || c == '_') {
            Pat::Ident(name)
        } else {
            Pat::Other
        }
    }

    /// Consumes a `..`/`..=` literal-range tail if present.
    fn pat_range_tail(&mut self) {
        if self.eat_range() {
            self.eat_p('-');
            let _ = self.eat_kind(TokKind::Number) || self.eat_kind(TokKind::Char);
        }
    }

    /// `(p, …)` / `[p, …]`; `pos` sits on the opener.
    fn pat_list(&mut self) -> Vec<Pat> {
        let mut ps = Vec::new();
        self.group().list(",", |p| ps.push(p.pat()));
        ps
    }

    // ----- items -----------------------------------------------------

    /// Parses the rest of the slice as items.
    fn items(&mut self) -> Vec<Item> {
        let mut out = Vec::new();
        self.list("", |p| {
            let attrs = p.attrs();
            out.extend(p.item_one(attrs).or_else(|| p.macro_items()));
        });
        out
    }

    /// An item-position macro invocation, its interior read as items so
    /// fns written inside one (`proptest! { … }`) stay visible. Reached
    /// from [`Parser::items`] only: in a fn body `name!(…)` is an
    /// expression the passes must see, attributes or not.
    fn macro_items(&mut self) -> Option<Item> {
        if !(self.is_kind(TokKind::Ident) && self.nth_is_p(1, '!')) {
            return None;
        }
        let name = self.eat_ident();
        self.bump(); // `!`
        let body = self.at_open().then(|| self.group());
        self.eat_p(';');
        Some(body.map_or(Item::Other, |mut inner| {
            Item::Mod(ModDef {
                name,
                cfg_test: false,
                items: inner.items(),
            })
        }))
    }

    /// One keyword-introduced item, its `attrs` already read; `None` if
    /// no item starts here.
    fn item_one(&mut self, attrs: Attrs) -> Option<Item> {
        if self.eat_p(';') {
            return None;
        }
        self.vis();
        // Fn qualifiers.
        let mut saw_qual = false;
        loop {
            if (self.is_id("const") && self.nth(1).is_some_and(|t| t.is_ident("fn")))
                || self.is_id("async")
                || self.is_id("unsafe")
            {
                self.bump();
            } else if self.eat_id("extern") {
                self.eat_kind(TokKind::Str);
            } else {
                break;
            }
            saw_qual = true;
        }
        if self.is_id("fn") {
            return Some(Item::Fn(self.fun(attrs.test)));
        }
        if self.is_id("impl") {
            let outer = self.in_test;
            self.in_test |= attrs.cfg_test || attrs.test;
            let block = self.impl_block();
            self.in_test = outer;
            return Some(Item::Impl(block));
        }
        if saw_qual {
            // `extern { … }` blocks.
            if self.is_p('{') {
                self.group();
            }
            return Some(Item::Other);
        }
        if self.is_id("struct") || self.is_id("enum") || self.is_id("union") {
            return Some(Item::Struct(self.struct_def(attrs.derives)));
        }
        if self.is_id("trait") {
            return Some(Item::Impl(self.trait_def()));
        }
        if self.eat_id("mod") {
            let name = self.eat_ident();
            if !self.is_p('{') {
                self.eat_p(';');
                return Some(Item::Other);
            }
            let cfg_test = attrs.cfg_test || attrs.test;
            let mut inner = self.group();
            inner.in_test |= cfg_test;
            return Some(Item::Mod(ModDef {
                name,
                cfg_test,
                items: inner.items(),
            }));
        }
        if self.is_id("use") || self.is_id("const") || self.is_id("static") || self.is_id("type") {
            // No `<…>` grouping here: `const N: u64 = 1 << 26;`.
            self.skip_to(";", false);
            self.eat_p(';');
            return Some(Item::Other);
        }
        if self.eat_id("macro_rules") {
            // `macro_rules! name { … }`: the body is token patterns, not
            // items; skipped.
            self.eat_p('!');
            self.eat_ident();
            if self.at_open() {
                self.group();
            }
            self.eat_p(';');
            return Some(Item::Other);
        }
        None
    }

    fn fun(&mut self, attr_test: bool) -> Fun {
        let line = self.line();
        self.bump(); // `fn`
        let name = self.eat_ident();
        if self.is_p('<') {
            self.angles();
        }
        let mut params = Vec::new();
        let mut has_self = false;
        if self.is_p('(') {
            self.group().list(",", |p| {
                let _ = p.attrs();
                // Self parameter: `[&]['a][mut] self [: Ty]`.
                let save = p.pos;
                let _ = p.eat_p('&') && p.eat_kind(TokKind::Lifetime);
                p.eat_id("mut");
                if p.eat_id("self") {
                    has_self = true;
                    let _ = p.ascription();
                } else {
                    p.pos = save;
                    params.push((p.pat(), p.ascription()));
                }
            });
        }
        let ret = self.ret_ty();
        self.where_clause();
        let is_test = self.in_test || attr_test;
        let (body, end_line) = if self.is_p('{') {
            let mut inner = self.group();
            inner.in_test = is_test;
            (inner.stmts(), inner.end_line)
        } else {
            self.eat_p(';');
            (Block::default(), line)
        };
        Fun {
            name,
            params,
            ret,
            body,
            line,
            end_line,
            is_test,
            has_self,
        }
    }

    /// Skips a `where` clause up to the `{`/`;` that ends it.
    fn where_clause(&mut self) {
        if self.is_id("where") {
            self.skip_to("{;", true);
        }
    }

    fn struct_def(&mut self, derives: Vec<String>) -> StructDef {
        let line = self.line();
        let is_enum = self.is_id("enum");
        self.bump(); // struct/enum/union
        let name = self.eat_ident();
        if self.is_p('<') {
            self.angles();
        }
        self.where_clause();
        let mut fields = Vec::new();
        if self.is_p('(') {
            self.group().tuple_fields(&mut fields);
        } else if self.is_p('{') && is_enum {
            // Variants: `Name`, `Name(Ty, …)`, `Name { f: Ty, … }`, each
            // with an optional `= discriminant`.
            self.group().list(",", |p| {
                let _ = p.attrs();
                p.eat_ident();
                if p.is_p('(') {
                    p.group().tuple_fields(&mut fields);
                } else if p.is_p('{') {
                    p.group().named_fields(&mut fields);
                }
                p.skip_to(",", false);
            });
        } else if self.is_p('{') {
            self.group().named_fields(&mut fields);
        }
        self.eat_p(';');
        StructDef {
            name,
            fields,
            derives,
            is_enum,
            line,
        }
    }

    /// The rest of the slice as tuple fields `Ty, …`, named `0`, `1`, ….
    fn tuple_fields(&mut self, fields: &mut Vec<(String, Ty)>) {
        let mut idx = 0usize;
        self.list(",", |p| {
            let _ = p.attrs();
            p.vis();
            fields.push((idx.to_string(), p.ty()));
            idx += 1;
        });
    }

    /// The rest of the slice as named fields `name: Ty, …`.
    fn named_fields(&mut self, fields: &mut Vec<(String, Ty)>) {
        self.list(",", |p| {
            let _ = p.attrs();
            p.vis();
            let name = p.eat_ident();
            if !name.is_empty() && p.eat_p(':') {
                fields.push((name, p.ty()));
            }
        });
    }

    fn impl_block(&mut self) -> ImplBlock {
        self.bump(); // `impl`
        if self.is_p('<') {
            self.angles();
        }
        let first = self.ty();
        let (self_ty, trait_name) = if self.eat_id("for") {
            (self.ty().head, Some(first.head))
        } else {
            (first.head, None)
        };
        self.where_clause();
        ImplBlock {
            self_ty,
            trait_name,
            fns: self.fn_items(),
        }
    }

    fn trait_def(&mut self) -> ImplBlock {
        self.bump(); // `trait`
        let name = self.eat_ident();
        // Generics, supertrait bounds and `where` clause.
        self.skip_to("{;", true);
        ImplBlock {
            self_ty: name,
            trait_name: None,
            fns: self.fn_items(),
        }
    }

    /// The fns of an `impl`/`trait` body; `pos` sits on its `{`.
    fn fn_items(&mut self) -> Vec<Fun> {
        let items = if self.is_p('{') {
            self.group().items()
        } else {
            Vec::new()
        };
        let fns = items.into_iter().filter_map(|i| match i {
            Item::Fn(f) => Some(f),
            _ => None,
        });
        fns.collect()
    }

    // ----- statements & blocks ---------------------------------------

    /// Parses a `{ … }` block; `pos` sits on `{`.
    fn block(&mut self) -> Block {
        if self.is_p('{') {
            self.group().stmts()
        } else {
            Block::default()
        }
    }

    /// Parses the rest of the slice as statements.
    fn stmts(&mut self) -> Block {
        let mut stmts = Vec::new();
        self.list("", |p| {
            // Attributes decide nothing: what follows them is dispatched
            // as if they were absent, so `#[cfg(..)] eprintln!(..)` and
            // `#[allow(..)] unsafe { .. }` stay expressions the passes see.
            let attrs = p.attrs();
            if p.eat_p(';') {
                stmts.push(Stmt::Empty);
            } else if p.is_id("let") {
                stmts.push(p.let_stmt());
            } else if p.at_item_start() {
                stmts.extend(p.item_one(attrs).map(|i| Stmt::Item(Box::new(i))));
            } else {
                p.stmt_start = p.pos;
                let expr = p.expr(false);
                let semi = p.eat_p(';');
                stmts.push(Stmt::Expr { expr, semi });
            }
        });
        Block { stmts }
    }

    /// Whether the current token (attributes already read) begins a
    /// nested item rather than an expression statement.
    fn at_item_start(&self) -> bool {
        let Some(t) = self.tok().filter(|t| t.kind == TokKind::Ident) else {
            return false;
        };
        matches!(
            t.text.as_str(),
            "fn" | "struct"
                | "enum"
                | "impl"
                | "trait"
                | "mod"
                | "use"
                | "static"
                | "type"
                | "macro_rules"
                | "pub"
        )
            // A qualifier starts an item (`unsafe fn`, `extern "C" fn`)
            // unless it opens a block expression (`unsafe { … }`).
            || (matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern")
                && !self.nth_is_p(1, '{'))
            // `union` is a keyword only before a name (`union.sort()`).
            || (t.text == "union" && self.nth(1).is_some_and(|n| n.kind == TokKind::Ident))
    }

    fn let_stmt(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // `let`
        let pat = self.pat();
        let ty = self.eat_p(':').then(|| self.ty());
        let init = self.eat_op("=").then(|| self.expr(false));
        let else_block = (self.eat_id("else") && self.is_p('{')).then(|| self.block());
        self.eat_p(';');
        Stmt::Let {
            pat,
            ty,
            init,
            else_block,
            line,
        }
    }

    // ----- expressions -----------------------------------------------

    /// Parses one expression (assignment level, right-associative).
    /// `ns` (no-struct) forbids `Path { … }` struct literals, as in
    /// `if`/`while`/`match`-header positions.
    fn expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let lhs = self.range_expr(ns);
        let op = self.punct();
        if !ASSIGN.contains(&op) {
            return lhs;
        }
        self.pos += op.len();
        let kind = ExprKind::Assign {
            lhs: Box::new(lhs),
            rhs: Box::new(self.expr(ns)),
        };
        Expr { line, kind }
    }

    fn range_expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let mut lo = None;
        if !self.at_range() {
            let e = self.binary(ns, 0);
            if !self.at_range() {
                return e;
            }
            lo = Some(Box::new(e));
        }
        self.eat_range();
        let hi = self.expr_can_start().then(|| Box::new(self.binary(ns, 0)));
        Expr {
            line,
            kind: ExprKind::Range(lo, hi),
        }
    }

    /// Whether the current token can plausibly begin an expression (used
    /// to decide open-ended ranges and bare `return`/`break`).
    fn expr_can_start(&self) -> bool {
        let Some(t) = self.tok() else { return false };
        match t.kind {
            TokKind::Ident => !matches!(t.text.as_str(), "in" | "else" | "where"),
            TokKind::Number | TokKind::Str | TokKind::Char => true,
            TokKind::Punct => {
                matches!(
                    t.text.as_bytes().first(),
                    Some(b'(' | b'[' | b'{' | b'-' | b'!' | b'*' | b'&' | b'|')
                )
            }
            _ => false,
        }
    }

    /// Precedence climbing over [`BINARY`]: operators binding at least
    /// as tightly as `min`.
    fn binary(&mut self, ns: bool, min: u8) -> Expr {
        let mut lhs = self.cast_expr(ns);
        loop {
            let op = self.punct();
            let Some(&(_, bin, prec)) = BINARY.iter().find(|b| b.0 == op && b.2 >= min) else {
                return lhs;
            };
            let line = self.line();
            self.pos += op.len();
            let rhs = self.binary(ns, prec + 1);
            lhs = Expr {
                line,
                kind: ExprKind::Binary(bin, Box::new(lhs), Box::new(rhs)),
            };
        }
    }

    fn cast_expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let mut e = self.unary(ns);
        while self.eat_id("as") {
            // No `+` bounds here: `x as usize + y` adds `y`.
            let kind = ExprKind::Cast(Box::new(e), self.ty_component());
            e = Expr { line, kind };
        }
        e
    }

    fn unary(&mut self, ns: bool) -> Expr {
        let line = self.line();
        // `&&x` is two tokens; the second `&` recurses.
        if !['-', '!', '*', '&'].iter().any(|&c| self.eat_p(c)) {
            return self.postfix(ns);
        }
        self.eat_id("mut");
        Expr {
            line,
            kind: ExprKind::Unary(Box::new(self.unary(ns))),
        }
    }

    fn postfix(&mut self, ns: bool) -> Expr {
        let at_stmt = self.pos == self.stmt_start;
        let mut e = self.primary(ns);
        if at_stmt && block_like(&e) && (self.is_p('(') || self.is_p('[')) {
            return e;
        }
        loop {
            let line = self.line();
            let kind = if self.op(".") {
                let Some(next) = self.nth(1) else { break };
                let name = next.text.clone();
                match next.kind {
                    // `.await` is transparent to the passes.
                    TokKind::Ident if name == "await" => {
                        self.pos += 2;
                        continue;
                    }
                    TokKind::Ident | TokKind::Number => self.pos += 2,
                    _ => break,
                }
                // Turbofish between name and call parens.
                if self.op("::") && self.nth_is_p(2, '<') {
                    self.pos += 2;
                    self.angles();
                }
                if next.kind == TokKind::Ident && self.is_p('(') {
                    ExprKind::MethodCall {
                        recv: Box::new(e),
                        name,
                        args: self.call_args(),
                    }
                } else {
                    ExprKind::Field(Box::new(e), name)
                }
            } else if self.is_p('(') {
                ExprKind::Call {
                    callee: Box::new(e),
                    args: self.call_args(),
                }
            } else if self.is_p('[') {
                ExprKind::Index {
                    base: Box::new(e),
                    index: Box::new(self.group().expr(false)),
                }
            } else if self.eat_p('?') {
                ExprKind::Try(Box::new(e))
            } else {
                break;
            };
            e = Expr { line, kind };
        }
        e
    }

    /// Parses `( expr, … )` call arguments; `pos` sits on `(`.
    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.group().list(",", |p| args.push(p.expr(false)));
        args
    }

    fn primary(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.tok() else {
            return Expr::unknown(line);
        };
        let kind = match t.kind {
            TokKind::Number | TokKind::Char => ExprKind::Lit,
            TokKind::Str => ExprKind::Str(t.text.clone()),
            TokKind::Lifetime => {
                // Loop label: `'l: loop { … }`.
                self.bump();
                self.eat_p(':');
                return self.primary(ns);
            }
            TokKind::Punct => return self.primary_punct(line),
            TokKind::Ident => return self.primary_ident(ns, line),
        };
        self.bump();
        Expr { line, kind }
    }

    fn primary_punct(&mut self, line: usize) -> Expr {
        let mut els = Vec::new();
        let kind = if self.is_p('(') {
            let commas = self.group().list(",", |p| els.push(p.expr(false)));
            if els.len() == 1 && commas == 0 {
                return els.pop().unwrap_or_else(|| Expr::unknown(line));
            }
            ExprKind::Tuple(els)
        } else if self.is_p('[') {
            self.group().list(",;", |p| els.push(p.expr(false)));
            ExprKind::Array(els)
        } else if self.is_p('{') {
            ExprKind::Block(self.block())
        } else if self.is_p('|') {
            return self.closure(line);
        } else if self.is_p('<') {
            // Qualified path `<T as Trait>::method(…)`: skip the type,
            // then parse the path tail.
            self.angles();
            if self.eat_op("::") {
                return self.primary(true);
            }
            ExprKind::Unknown
        } else {
            self.bump();
            ExprKind::Unknown
        };
        Expr { line, kind }
    }

    /// `|params| body`; `pos` sits on the first `|`.
    fn closure(&mut self, line: usize) -> Expr {
        let mut params = Vec::new();
        self.bars()
            .list(",", |p| params.push((p.pat(), p.ascription())));
        let _ = self.ret_ty();
        let kind = ExprKind::Closure {
            params,
            body: Box::new(self.expr(false)),
        };
        Expr { line, kind }
    }

    fn primary_ident(&mut self, ns: bool, line: usize) -> Expr {
        let Some(t) = self.tok() else {
            return Expr::unknown(line);
        };
        let kind = match t.text.as_str() {
            "if" => return self.if_expr(line),
            "match" => return self.match_expr(line),
            "while" => return self.while_expr(line),
            "true" | "false" | "continue" => {
                self.bump();
                self.eat_kind(TokKind::Lifetime); // `continue 'l`
                ExprKind::Lit
            }
            "for" => {
                self.bump();
                let pat = self.pat();
                self.eat_id("in");
                ExprKind::ForLoop {
                    pat,
                    iter: Box::new(self.expr(true)),
                    body: self.block(),
                }
            }
            "loop" => {
                self.bump();
                ExprKind::Loop(self.block())
            }
            "return" => {
                self.bump();
                ExprKind::Return(self.operand(ns))
            }
            "break" => {
                self.bump();
                self.eat_kind(TokKind::Lifetime);
                ExprKind::Break(self.operand(ns))
            }
            "unsafe" if self.nth_is_p(1, '{') => {
                self.bump();
                ExprKind::Block(self.block())
            }
            "move" if self.nth_is_p(1, '|') => {
                self.bump();
                return self.closure(line);
            }
            "let" => {
                // Let-chain fragment (`… && let Some(x) = e`): keep the
                // scrutinee, drop the binding — lossy but safe.
                self.bump();
                let _ = self.pat();
                if self.eat_op("=") {
                    return self.expr(true);
                }
                ExprKind::Unknown
            }
            "unsafe" | "move" => {
                self.bump();
                ExprKind::Unknown
            }
            _ => return self.path_expr(ns, line),
        };
        Expr { line, kind }
    }

    /// The optional value of a `return`/`break`.
    fn operand(&mut self, ns: bool) -> Option<Box<Expr>> {
        self.expr_can_start().then(|| Box::new(self.expr(ns)))
    }

    /// `= scrutinee` after the pattern of an `if let`/`while let`.
    fn scrutinee(&mut self, line: usize) -> Box<Expr> {
        Box::new(if self.eat_op("=") {
            self.expr(true)
        } else {
            Expr::unknown(line)
        })
    }

    fn if_expr(&mut self, line: usize) -> Expr {
        self.bump(); // `if`
        if !self.eat_id("let") {
            let kind = ExprKind::If {
                cond: Box::new(self.expr(true)),
                then: self.block(),
                els: self.else_tail(line).map(Box::new),
            };
            return Expr { line, kind };
        }
        // Desugar `if let P = e { A } else { B }` to a two-arm match.
        let pat = self.pat();
        let scrutinee = self.scrutinee(line);
        let block = |b| Expr {
            line,
            kind: ExprKind::Block(b),
        };
        let then = block(self.block());
        let els = self.else_tail(line);
        let arms = vec![
            Arm {
                pat,
                guard: None,
                body: then,
            },
            Arm {
                pat: Pat::Wild,
                guard: None,
                body: els.unwrap_or_else(|| block(Block::default())),
            },
        ];
        Expr {
            line,
            kind: ExprKind::Match { scrutinee, arms },
        }
    }

    fn else_tail(&mut self, line: usize) -> Option<Expr> {
        if !self.eat_id("else") {
            return None;
        }
        if self.is_id("if") {
            return Some(self.if_expr(self.line()));
        }
        self.is_p('{').then(|| Expr {
            line,
            kind: ExprKind::Block(self.block()),
        })
    }

    fn match_expr(&mut self, line: usize) -> Expr {
        self.bump(); // `match`
        let scrutinee = Box::new(self.expr(true));
        let mut arms = Vec::new();
        if self.is_p('{') {
            self.group().list(",", |p| {
                let _ = p.attrs();
                p.eat_p('|');
                let pat = p.pat();
                let guard = p.eat_id("if").then(|| p.expr(true));
                p.eat_op("=>");
                p.stmt_start = p.pos;
                let body = p.expr(false);
                arms.push(Arm { pat, guard, body });
            });
        }
        Expr {
            line,
            kind: ExprKind::Match { scrutinee, arms },
        }
    }

    fn while_expr(&mut self, line: usize) -> Expr {
        self.bump(); // `while`
        if !self.eat_id("let") {
            let kind = ExprKind::While {
                cond: Box::new(self.expr(true)),
                body: self.block(),
            };
            return Expr { line, kind };
        }
        // Desugar `while let P = e { B }` to
        // `loop { match e { P => B, _ => break } }`.
        let pat = self.pat();
        let scrutinee = self.scrutinee(line);
        let arm = |pat, kind| Arm {
            pat,
            guard: None,
            body: Expr { line, kind },
        };
        let arms = vec![
            arm(pat, ExprKind::Block(self.block())),
            arm(Pat::Wild, ExprKind::Break(None)),
        ];
        let expr = Expr {
            line,
            kind: ExprKind::Match { scrutinee, arms },
        };
        let stmts = vec![Stmt::Expr { expr, semi: true }];
        Expr {
            line,
            kind: ExprKind::Loop(Block { stmts }),
        }
    }

    fn path_expr(&mut self, ns: bool, line: usize) -> Expr {
        let mut segs: Vec<String> = Vec::new();
        while self.is_kind(TokKind::Ident) {
            segs.push(self.eat_ident());
            if !self.eat_op("::") {
                break;
            }
            if self.is_p('<') {
                // Turbofish.
                self.angles();
                if !self.eat_op("::") {
                    break;
                }
            }
        }
        let head = segs.last().cloned().unwrap_or_default();
        // Macro invocation.
        if self.is_p('!') && self.nth(1).is_some_and(is_open) {
            self.bump(); // `!`
            return self.macro_call(head, line);
        }
        // Struct literal (uppercase-initial heads only, outside header
        // positions).
        if !ns && self.is_p('{') && head.starts_with(char::is_uppercase) {
            return self.struct_lit(head, line);
        }
        Expr {
            line,
            kind: ExprKind::Path(segs),
        }
    }

    fn struct_lit(&mut self, path: String, line: usize) -> Expr {
        let mut fields = Vec::new();
        let mut base = None;
        self.group().list(",", |p| {
            if p.eat_range() {
                // `Variant { .. }` in a `matches!` pattern has no base.
                base = (!p.at_end()).then(|| Box::new(p.expr(false)));
            } else if let Some(f) = p.tok().filter(|t| t.kind == TokKind::Ident) {
                p.bump();
                let value = if p.eat_p(':') {
                    p.expr(false)
                } else {
                    // Shorthand `Foo { x }`.
                    Expr {
                        line: f.line,
                        kind: ExprKind::Path(vec![f.text.clone()]),
                    }
                };
                fields.push((f.text.clone(), value));
            }
        });
        Expr {
            line,
            kind: ExprKind::StructLit { path, fields, base },
        }
    }

    /// Parses `name!(…)` — `pos` sits on the opening delimiter. Captures
    /// the raw ident/string bag, then best-effort parses the top-level
    /// `,`/`;`-separated segments as expressions, each on its own slice:
    /// an argument that is no expression (a pattern, a type) cannot
    /// disturb its neighbours. Leftover tokens of a segment are ignored.
    fn macro_call(&mut self, name: String, line: usize) -> Expr {
        let mut inner = self.group();
        let (raw_idents, strs) = (inner.texts(TokKind::Ident), inner.texts(TokKind::Str));
        let mut args = Vec::new();
        while !inner.at_end() {
            let start = inner.pos;
            inner.skip_to(",;", false);
            let seg = inner.t.get(start..inner.pos).unwrap_or(&[]);
            if let Some(last) = seg.last() {
                args.push(inner.sub(seg, last.line).expr(false));
            }
            inner.bump();
        }
        Expr {
            line,
            kind: ExprKind::Macro {
                name,
                args,
                raw_idents,
                strs,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(&lex(src))
    }

    fn first_fn(items: &[Item]) -> &Fun {
        items
            .iter()
            .find_map(|i| match i {
                Item::Fn(f) => Some(f),
                _ => None,
            })
            .expect("no fn parsed")
    }

    #[test]
    fn fn_signature_and_ret() {
        let items = parse("fn f(a: Secret<Vec<R64>>, n: usize) -> Secret<u64> { a.open() }");
        let f = first_fn(&items);
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].1.head, "Secret");
        assert_eq!(f.params[0].1.args[0].head, "Vec");
        assert!(f.ret.mentions("Secret"));
    }

    #[test]
    fn nested_generics_with_shift_close() {
        let items = parse("fn g(m: BTreeMap<String, Vec<Vec<u64>>>) -> usize { m.len() }");
        let f = first_fn(&items);
        assert_eq!(f.params[0].1.head, "BTreeMap");
        assert!(f.params[0].1.mentions("u64"));
        assert_eq!(f.ret.head, "usize");
    }

    #[test]
    fn impl_fn_param_arrow_does_not_split_params() {
        // The `->` inside the Fn trait must not eat the second param.
        let items = parse("fn h(g: impl Fn(u64) -> Vec<u64>, share: R64) -> u64 { 0 }");
        let f = first_fn(&items);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].1.head, "R64");
    }

    #[test]
    fn const_generic_brace_is_not_fn_body() {
        let items = parse("fn k() -> Foo<{ 1 >> 2 }> { make() }\nfn after() {}");
        let names: Vec<&str> = items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["k", "after"]);
        let f = first_fn(&items);
        assert_eq!(f.body.stmts.len(), 1);
    }

    #[test]
    fn where_clause_skipped() {
        let items = parse("fn w<T>(x: T) -> T where T: Clone + Send, Vec<T>: IntoIterator { x }");
        let f = first_fn(&items);
        assert_eq!(f.name, "w");
        assert!(f.body.tail().is_some());
    }

    #[test]
    fn struct_fields_and_derives() {
        let items = parse(
            "#[derive(Clone, Debug)]\npub struct Pkt { pub label: String, shares: Secret<Vec<R64>> }",
        );
        let Some(Item::Struct(s)) = items.first() else {
            panic!("expected struct");
        };
        assert_eq!(s.name, "Pkt");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].0, "shares");
        assert!(s.fields[1].1.mentions("Secret"));
        assert!(s.derives.iter().any(|d| d == "Debug"));
    }

    #[test]
    fn impl_methods_resolved_to_self_ty() {
        let items = parse(
            "impl<T> Secret<T> { pub fn open_via(&self) -> T { self.0 } }\n\
             impl Render for Pkt { fn render(&self) -> String { format!(\"x\") } }",
        );
        let Some(Item::Impl(i1)) = items.first() else {
            panic!("expected impl");
        };
        assert_eq!(i1.self_ty, "Secret");
        assert_eq!(i1.fns[0].name, "open_via");
        assert!(i1.fns[0].has_self);
        let Some(Item::Impl(i2)) = items.get(1) else {
            panic!("expected impl");
        };
        assert_eq!(i2.self_ty, "Pkt");
        assert_eq!(i2.trait_name.as_deref(), Some("Render"));
    }

    #[test]
    fn method_chain_and_field_projection() {
        let items = parse("fn f(p: Pkt) { p.shares.iter().for_each(|s| drop(s)); }");
        let f = first_fn(&items);
        let Some(Stmt::Expr { expr, .. }) = f.body.stmts.first() else {
            panic!("expected expr stmt");
        };
        // for_each(recv = iter() on field p.shares, arg = closure)
        let ExprKind::MethodCall { recv, name, args } = &expr.kind else {
            panic!("expected method call, got {expr:?}");
        };
        assert_eq!(name, "for_each");
        assert!(matches!(args[0].kind, ExprKind::Closure { .. }));
        let ExprKind::MethodCall {
            recv: r2, name: n2, ..
        } = &recv.kind
        else {
            panic!("expected inner call");
        };
        assert_eq!(n2, "iter");
        assert_eq!(r2.place().as_deref(), Some("p.shares"));
    }

    #[test]
    fn closures_params_and_captures() {
        let items = parse("fn f() { let g = move |x: u64, y| x + y; g(1, 2); }");
        let f = first_fn(&items);
        let Some(Stmt::Let { init: Some(e), .. }) = f.body.stmts.first() else {
            panic!("expected let");
        };
        let ExprKind::Closure { params, .. } = &e.kind else {
            panic!("expected closure, got {e:?}");
        };
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn if_let_desugars_to_match() {
        let items = parse("fn f(o: Option<u64>) { if let Some(v) = o { use_it(v); } }");
        let f = first_fn(&items);
        let Some(Stmt::Expr { expr, .. }) = f.body.stmts.first() else {
            panic!("expected stmt");
        };
        let ExprKind::Match { arms, .. } = &expr.kind else {
            panic!("expected match desugar, got {expr:?}");
        };
        assert_eq!(arms.len(), 2);
        let mut binds = Vec::new();
        arms[0].pat.bindings(&mut binds);
        assert_eq!(binds, vec!["v"]);
    }

    #[test]
    fn match_arms_with_struct_patterns() {
        let items = parse(
            "fn f(y: Y) -> u64 { match y { Y::Shared { qty, .. } => qty, Y::Plain(v) => v, _ => 0 } }",
        );
        let f = first_fn(&items);
        let Some(Stmt::Expr { expr, .. }) = f.body.stmts.first() else {
            panic!("expected stmt");
        };
        let ExprKind::Match { arms, .. } = &expr.kind else {
            panic!("expected match");
        };
        assert_eq!(arms.len(), 3);
        let mut b0 = Vec::new();
        arms[0].pat.bindings(&mut b0);
        assert_eq!(b0, vec!["qty"]);
        let mut b1 = Vec::new();
        arms[1].pat.bindings(&mut b1);
        assert_eq!(b1, vec!["v"]);
    }

    #[test]
    fn macro_args_and_inline_captures() {
        let items = parse(r#"fn f(x: u64) { println!("v={:?} {x}", pkt.shares); }"#);
        let f = first_fn(&items);
        let Some(Stmt::Expr { expr, .. }) = f.body.stmts.first() else {
            panic!("expected stmt");
        };
        let ExprKind::Macro {
            name, args, strs, ..
        } = &expr.kind
        else {
            panic!("expected macro, got {expr:?}");
        };
        assert_eq!(name, "println");
        assert!(strs[0].contains("{x}"));
        assert_eq!(args[1].place().as_deref(), Some("pkt.shares"));
    }

    #[test]
    fn tuple_field_access() {
        let items = parse("fn f(pair: (u64, Secret<R64>)) -> u64 { pair.0 }");
        let f = first_fn(&items);
        let tail = f.body.tail().expect("tail");
        assert_eq!(tail.place().as_deref(), Some("pair.0"));
        assert_eq!(f.params[0].1.args.len(), 2);
        assert!(f.params[0]
            .1
            .tuple_elem(1)
            .is_some_and(|t| t.mentions("Secret")));
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let items = parse("#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }");
        let Some(Item::Mod(m)) = items.first() else {
            panic!("expected mod");
        };
        assert!(m.cfg_test);
        for item in &m.items {
            if let Item::Fn(f) = item {
                assert!(f.is_test, "{} should be test-scoped", f.name);
            }
        }
    }

    #[test]
    fn cfg_test_impl_marks_fns() {
        let items = parse("#[cfg(test)]\nimpl Net { fn a() {} fn b() {} }\nimpl Net { fn c() {} }");
        let fns: Vec<(&str, bool)> = items
            .iter()
            .filter_map(|i| match i {
                Item::Impl(ib) => Some(ib.fns.iter().map(|f| (f.name.as_str(), f.is_test))),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(fns, [("a", true), ("b", true), ("c", false)]);
    }

    #[test]
    fn while_let_and_ranges_parse() {
        let items = parse(
            "fn f(mut it: I) { while let Some(x) = it.next() { use_it(x); } for i in 0..10 { g(i); } }",
        );
        let f = first_fn(&items);
        assert!(f.body.stmts.len() >= 2);
        let Some(Stmt::Expr { expr, .. }) = f.body.stmts.get(1) else {
            panic!("expected for loop");
        };
        let ExprKind::ForLoop { iter, .. } = &expr.kind else {
            panic!("expected for, got {expr:?}");
        };
        assert!(matches!(iter.kind, ExprKind::Range(_, _)));
    }

    #[test]
    fn operators_classified() {
        let items = parse("fn f(a: u64, b: u64) -> bool { (a % b) < (a / b) }");
        let f = first_fn(&items);
        let tail = f.body.tail().expect("tail");
        let ExprKind::Binary(op, l, r) = &tail.kind else {
            panic!("expected cmp, got {tail:?}");
        };
        assert_eq!(*op, BinOp::Lt);
        assert!(matches!(l.kind, ExprKind::Binary(BinOp::Rem, _, _)));
        assert!(matches!(r.kind, ExprKind::Binary(BinOp::Div, _, _)));
    }

    #[test]
    fn shift_vs_comparison() {
        let items = parse("fn f(a: u64) -> u64 { a << 3 >> 1 }");
        let f = first_fn(&items);
        let tail = f.body.tail().expect("tail");
        assert!(matches!(tail.kind, ExprKind::Binary(BinOp::Shr, _, _)));
    }

    #[test]
    fn struct_literal_vs_block() {
        let items = parse("fn f() -> Pkt { Pkt { label: name(), shares: s } }");
        let f = first_fn(&items);
        let tail = f.body.tail().expect("tail");
        let ExprKind::StructLit { path, fields, .. } = &tail.kind else {
            panic!("expected struct lit, got {tail:?}");
        };
        assert_eq!(path, "Pkt");
        assert_eq!(fields.len(), 2);
    }

    fn fn_names(items: &[Item]) -> Vec<&str> {
        items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f.name.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn struct_like_enum_variant_does_not_end_the_enum() {
        // Regression: the variant's `}` was taken for the enum's, and the
        // enum's real `}` then ended the file's item list.
        let items = parse("enum E { A, B { x: u32 }, C }\nfn after() {}");
        assert_eq!(fn_names(&items), vec!["after"]);
        let Some(Item::Struct(e)) = items.first() else {
            panic!("expected enum");
        };
        let fields: Vec<&str> = e.fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(fields, vec!["x"]);
    }

    #[test]
    fn shift_in_const_initialiser_is_not_a_generic_list() {
        // Regression: `<<` opened two angle groups that never closed, so
        // the skip ran to end of file.
        let items = parse("pub const MAX: u64 = 1 << 26;\ntype T = Vec<u8>;\nfn after() {}");
        assert_eq!(fn_names(&items), vec!["after"]);
    }

    #[test]
    fn block_bodied_arm_is_not_called_by_the_next_arm() {
        // Regression: `{ … }` followed by an arm whose pattern starts
        // with `(` parsed as a call on the block, and the arm list (and
        // the fn body) ran on to wherever the brackets happened to close.
        let items = parse(
            "fn f(a: A, b: B) -> u32 {\n\
                 match (a, b) {\n\
                     (A::X, _) => { return 1 }\n\
                     (A::Y { .. } | A::Z, Some(_)) => 2,\n\
                     [p, q] => 3,\n\
                 }\n\
             }\n\
             fn after() { if c { d() } (e, g).h(); }",
        );
        assert_eq!(fn_names(&items), vec!["f", "after"]);
        let Some(ExprKind::Match { arms, .. }) = first_fn(&items).body.tail().map(|e| &e.kind)
        else {
            panic!("expected match tail");
        };
        assert_eq!(arms.len(), 3);
        let Some(Item::Fn(after)) = items.get(1) else {
            panic!("expected fn");
        };
        assert_eq!(after.body.stmts.len(), 2);
    }

    #[test]
    fn a_slip_inside_a_group_stays_inside_it() {
        // `if )` used to consume the call's own `)`, so the argument list
        // ran on over `; h()` to the next `)` it could find.
        let items = parse("fn f() { g(x, if ); h() }\nfn after() { k(1) }");
        assert_eq!(fn_names(&items), vec!["f", "after"]);
        let stmts = &first_fn(&items).body.stmts;
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        let Some(Stmt::Expr { expr, .. }) = stmts.get(1) else {
            panic!("expected `h()`");
        };
        assert!(matches!(&expr.kind, ExprKind::Call { args, .. } if args.is_empty()));
    }

    #[test]
    fn attributed_statements_are_still_expressions() {
        // A leading `#[…]` must not route a statement to the item
        // parser: `name!(…)` there is an item-position macro (no
        // expression left for the passes) and `unsafe { … }` a qualifier
        // with a skipped body.
        let items = parse(
            "fn f(share: R64) {\n\
                 #[cfg(debug_assertions)] eprintln!(\"{share:?}\");\n\
                 #[allow(unused)] unsafe { leak(share) }\n\
                 #[inline] unsafe fn inner() {}\n\
                 #[rustfmt::skip] let y = 1;\n\
             }",
        );
        let stmts = &first_fn(&items).body.stmts;
        assert_eq!(stmts.len(), 4, "{stmts:?}");
        assert!(matches!(&stmts[0], Stmt::Expr { expr, .. }
                if matches!(&expr.kind, ExprKind::Macro { name, .. } if name == "eprintln")));
        let Stmt::Expr { expr, .. } = &stmts[1] else {
            panic!("expected the unsafe block, got {:?}", stmts[1]);
        };
        let ExprKind::Block(b) = &expr.kind else {
            panic!("expected a block, got {expr:?}");
        };
        assert!(matches!(
            b.tail().map(|e| &e.kind),
            Some(ExprKind::Call { .. })
        ));
        assert!(
            matches!(&stmts[2], Stmt::Item(i) if matches!(&**i, Item::Fn(f) if f.name == "inner"))
        );
        assert!(matches!(&stmts[3], Stmt::Let { .. }));
    }

    #[test]
    fn item_position_macro_bodies_are_items_and_macro_rules_is_skipped() {
        let items = parse(
            "proptest! { #[test] fn prop(x in 0..4u32) { check(x) } }\n\
             macro_rules! m { ($x:expr) => { fn hidden() {} }; }\n\
             fn f() { macro_rules! local { () => { fn hidden2() {} }; } g() }",
        );
        let Some(Item::Mod(m)) = items.first() else {
            panic!("expected the macro body as a mod, got {items:?}");
        };
        assert_eq!(m.name, "proptest");
        assert_eq!(fn_names(&m.items), vec!["prop"]);
        assert!(matches!(&m.items[0], Item::Fn(f) if f.is_test));
        assert!(matches!(items.get(1), Some(Item::Other)));
        let stmts = &first_fn(&items).body.stmts;
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(matches!(&stmts[0], Stmt::Item(i) if matches!(**i, Item::Other)));
    }

    #[test]
    fn guarded_arm_keeps_guard_and_body_apart() {
        // `=>` after a guard is one operator; read as `=` then `>` the
        // guard becomes `Assign { g, > body }`.
        let items = parse("fn f(v: V) -> u32 { match v { V::A(n) if n > 1 => n, _ => 0 } }");
        let Some(ExprKind::Match { arms, .. }) = first_fn(&items).body.tail().map(|e| &e.kind)
        else {
            panic!("expected match tail");
        };
        assert_eq!(arms.len(), 2);
        let guard = arms[0].guard.as_ref().expect("guard");
        assert!(matches!(guard.kind, ExprKind::Binary(BinOp::Gt, _, _)));
        assert_eq!(arms[0].body.place().as_deref(), Some("n"));
    }

    #[test]
    fn cast_takes_no_trait_bounds() {
        // `+ b` after `as usize` is an operand; read as a bound on the
        // cast's type it hides `b` from every pass.
        let items = parse("fn f(a: u32, b: usize) -> usize { a as usize + b }");
        let tail = first_fn(&items).body.tail().expect("tail");
        let ExprKind::Binary(BinOp::Add, l, r) = &tail.kind else {
            panic!("expected `+`, got {tail:?}");
        };
        assert!(matches!(&l.kind, ExprKind::Cast(_, ty) if ty.head == "usize"));
        assert_eq!(r.place().as_deref(), Some("b"));
    }

    #[test]
    fn rest_only_struct_pattern_in_macro_has_no_base() {
        // `V { .. }` as a `matches!` pattern: nothing follows `..`, so
        // there is no base (not an `Unknown` one).
        let items = parse("fn f(v: V) -> bool { matches!(v, V::A { .. }) }");
        let tail = first_fn(&items).body.tail().expect("tail");
        let ExprKind::Macro { args, .. } = &tail.kind else {
            panic!("expected macro, got {tail:?}");
        };
        assert!(
            matches!(&args[1].kind, ExprKind::StructLit { base: None, fields, .. } if fields.is_empty()),
            "{:?}",
            args[1]
        );
    }

    #[test]
    fn union_is_a_keyword_only_before_a_name() {
        let items = parse("fn f(mut union: Vec<u32>) { union.sort(); union U { a: u32 } }");
        let stmts = &first_fn(&items).body.stmts;
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(matches!(&stmts[0], Stmt::Expr { expr, .. }
            if matches!(&expr.kind, ExprKind::MethodCall { name, .. } if name == "sort")));
        assert!(
            matches!(&stmts[1], Stmt::Item(i) if matches!(&**i, Item::Struct(s) if s.name == "U"))
        );
    }

    #[test]
    fn stray_closer_at_top_level_does_not_end_the_file() {
        let items = parse("fn f() {} }\nfn after() {}");
        assert_eq!(fn_names(&items), vec!["f", "after"]);
    }

    #[test]
    fn items_nested_in_test_code_are_test_scoped() {
        let items = parse("#[test] fn t() { fn helper() {} helper() }\nfn f() { fn inner() {} }");
        for (outer, nested, is_test) in [(0, "helper", true), (1, "inner", false)] {
            let Some(Item::Fn(f)) = items.get(outer) else {
                panic!("expected fn");
            };
            let Some(Stmt::Item(i)) = f.body.stmts.first() else {
                panic!("expected nested item in {}", f.name);
            };
            assert!(
                matches!(&**i, Item::Fn(n) if n.name == nested && n.is_test == is_test),
                "{i:?}"
            );
        }
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn f( { ) }",
            "impl { fn }",
            "fn g() { let = ; match { } }",
            "struct S { x: , }",
            "fn h() { a.b.(c) }",
            "fn i() { x < < y }",
        ] {
            let _ = parse(src);
        }
    }
}
