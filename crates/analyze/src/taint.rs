//! Cross-function secret-taint closure (`cross-function-taint`).
//!
//! The per-file `secret-taint` lint catches secret-*named* values
//! reaching a formatter *in the same expression*. This pass closes the
//! remaining gap: secret material that escapes through a call chain — a
//! function returns a [`Secret`]-typed value (or a struct carrying one),
//! a second function passes it along under an innocuous name and type,
//! and a third finally Debug-formats it.
//!
//! The pass (`run`) is an abstract interpreter over the AST
//! (`crate::parser`), which gives it three kinds of precision:
//!
//! - **Field sensitivity.** Taint is tracked per dotted *place*
//!   (`pkt.shares`, `pair.1`), and a struct's declared field types decide
//!   which projections of a `Secret`-bearing value are secret:
//!   `pkt.shares` leaks, the sibling `pkt.label: String` does not.
//!   Struct types that transitively contain `Secret` are computed by the
//!   registry and treated as secret-bearing wherever they appear as
//!   parameter, field, or return types.
//! - **Closure captures.** A closure that captures a tainted local is a
//!   tainted callable, and combinator bodies (`map`, `zip_with`,
//!   `each`-style calls on a tainted receiver) run with their parameters
//!   tainted, so `rows.each(|row| println!("{row:?}"))` is caught inside
//!   the closure.
//! - **Method resolution.** Receiver types are inferred from `let`
//!   ascriptions, fn signatures, and struct fields, and method calls are
//!   resolved against the program's own impl blocks. The audited opens
//!   are recognized as *paths* — `Secret::open_via`,
//!   `PartyCtx::{open_local, open_sum}`, free `reconstruct_*` — so an
//!   arbitrary `.open_via()` on some other known type does not sanitize
//!   by name collision.
//!
//! The interpreter seeds from declared return types (any non-test secure
//! function whose return type carries `Secret`, plus every method of
//! `Secret` itself, gated behind receiver-type resolution), propagates
//! function-level taint to a fixpoint by abstractly evaluating each body,
//! and reports print/format macros whose arguments (or inline `{name}`
//! captures) evaluate tainted — unless pragma-allowed
//! (`// dash-analyze::allow(cross-function-taint): reason`) or in test
//! code.
//!
//! [`Secret`]: ../../dash_mpc/secret/struct.Secret.html

use crate::ast::{Block, Expr, ExprKind, Pat, Stmt, Ty};
use crate::model::FileModel;
use crate::registry::{FnEntry, Registry};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

const LINT: &str = "cross-function-taint";

/// Print/format macros that render values. `format_args`-style capture
/// scanning is applied to their string-literal arguments too.
const SINK_MACROS: [&str; 8] = [
    "println", "eprintln", "print", "eprint", "dbg", "format", "write", "writeln",
];

/// Identifiers captured inline in a format-string literal: `{name}`,
/// `{name:?}`, `{name:>8}`, …
pub(crate) fn inline_captures(lit: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = lit.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            if bytes.get(i + 1) == Some(&b'{') {
                i += 2; // escaped brace
                continue;
            }
            let mut j = i + 1;
            while j < bytes.len() && bytes[j] != b'}' && bytes[j] != b':' {
                j += 1;
            }
            let name = &lit[i + 1..j];
            if !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && !name.starts_with(|c: char| c.is_ascii_digit())
            {
                out.push(name.to_string());
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Methods that are audited opens when resolved to `Secret`/`PartyCtx`
/// (or when the receiver type is unknown and no competing definition
/// exists).
const AUDITED_METHODS: [&str; 4] = ["open_via", "open_local", "open_sum", "finish_open"];

/// Receiver types whose audited-open methods are trusted.
const AUDITED_TYPES: [&str; 2] = ["Secret", "PartyCtx"];

/// Metadata accessors that never expose element values: calling these on
/// a secret receiver yields public sizing information.
const METADATA_METHODS: [&str; 7] = [
    "len",
    "is_empty",
    "capacity",
    "count",
    "scalar_count",
    "vec_len",
    "tag",
];

/// Whether `name` is an audited *free* function (reconstruction helpers).
fn audited_free(name: &str) -> bool {
    name.starts_with("reconstruct_")
}

/// Whether a fn entry *is* one of the audited open primitives (and must
/// therefore never be marked tainted by the fixpoint).
fn is_audited_entry(e: &FnEntry) -> bool {
    match &e.self_ty {
        Some(st) => {
            AUDITED_METHODS.contains(&e.fun.name.as_str()) && AUDITED_TYPES.contains(&st.as_str())
        }
        None => audited_free(&e.fun.name),
    }
}

/// How a binding site taints the names it introduces.
#[derive(Clone, Copy, PartialEq)]
enum BindTaint {
    /// Initializer is clean.
    No,
    /// Initializer is tainted by *provenance* (came out of a tainted
    /// computation): every binding is tainted.
    Whole,
    /// Initializer is tainted only because its *type* carries secrets:
    /// bindings with a known type stay governed by that type (so a
    /// `String` field destructured out of a secret-bearing struct is
    /// clean); bindings with an unknown type are tainted conservatively.
    TypeOnly,
}

/// Abstract state: provenance-tainted places (dotted paths) plus the
/// inferred types of locals. Type-derived taint is *not* mirrored into
/// `tainted` — it flows through `types`, which is what keeps clean
/// sibling fields clean.
#[derive(Clone, Default)]
struct Env {
    tainted: BTreeSet<String>,
    types: BTreeMap<String, Ty>,
}

fn place_tainted(env: &Env, p: &str) -> bool {
    env.tainted.iter().any(|e| {
        e == p
            || p.strip_prefix(e.as_str())
                .is_some_and(|r| r.starts_with('.'))
            || e.strip_prefix(p).is_some_and(|r| r.starts_with('.'))
    })
}

fn clear_place(env: &mut Env, p: &str) {
    let prefix = format!("{p}.");
    env.tainted.retain(|q| q != p && !q.starts_with(&prefix));
}

/// The per-function abstract interpreter. One instance per (function,
/// phase): the fixpoint phase asks only whether the function's return
/// value is tainted; the emit phase also collects sink findings.
struct Intra<'a> {
    reg: &'a Registry<'a>,
    tainted_free: &'a BTreeSet<String>,
    tainted_methods: &'a BTreeSet<(String, String)>,
    model: &'a FileModel,
    fun_name: &'a str,
    self_ty: Option<&'a str>,
    emit: bool,
    findings: Vec<Finding>,
    ret_tainted: bool,
    /// Reads of tainted places/types seen so far — sampled around closure
    /// bodies to detect captures of tainted state.
    tainted_reads: usize,
}

impl<'a> Intra<'a> {
    fn ty_secret(&self, ty: &Ty) -> bool {
        self.reg.ty_secret(ty, self.self_ty)
    }

    /// Best-effort static type of an expression, from `let` ascriptions,
    /// parameter types, struct fields, and resolved call signatures.
    fn type_of(&self, e: &Expr, env: &Env) -> Option<Ty> {
        match &e.kind {
            ExprKind::Path(segs) if segs.len() == 1 => env.types.get(&segs[0]).cloned(),
            ExprKind::Field(base, name) => {
                let bt = self.type_of(base, env)?;
                if let Ok(i) = name.parse::<usize>() {
                    if let Some(t) = bt.tuple_elem(i) {
                        return Some(t.clone());
                    }
                }
                if bt.head.is_empty() {
                    return None;
                }
                self.reg.field_ty(&bt.head, name).cloned()
            }
            ExprKind::Unary(i) => self.type_of(i, env),
            ExprKind::Try(i) => {
                let t = self.type_of(i, env)?;
                if matches!(t.head.as_str(), "Result" | "Option") {
                    t.args.first().cloned()
                } else {
                    None
                }
            }
            ExprKind::Cast(_, ty) => Some(ty.clone()),
            ExprKind::Index { base, .. } => self.type_of(base, env)?.elem().cloned(),
            ExprKind::StructLit { path, .. } => Some(Ty::simple(path)),
            ExprKind::MethodCall { recv, name, .. } => {
                let rt = self.type_of(recv, env)?;
                if rt.head.is_empty() {
                    return None;
                }
                let i = *self.reg.methods.get(&(rt.head.clone(), name.clone()))?;
                Some(self.ret_ty(i, &rt.head))
            }
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Path(segs) = &callee.kind {
                    if segs.len() == 1 {
                        let idx = *self.reg.free.get(&segs[0])?.first()?;
                        return Some(self.ret_ty(idx, ""));
                    }
                    if segs.len() >= 2 {
                        let t = &segs[segs.len() - 2];
                        let m = &segs[segs.len() - 1];
                        let i = *self.reg.methods.get(&(t.clone(), m.clone()))?;
                        return Some(self.ret_ty(i, t));
                    }
                }
                None
            }
            _ => None,
        }
    }

    /// Declared return type of fn entry `i`, with `Self` resolved.
    fn ret_ty(&self, i: usize, self_head: &str) -> Ty {
        let r = &self.reg.fns[i].fun.ret;
        if r.head == "Self" && !self_head.is_empty() {
            Ty::simple(self_head)
        } else {
            r.clone()
        }
    }

    /// Whether a method call resolves to an audited open: the name must
    /// match, and the receiver must either be a trusted type, be unknown
    /// (name fallback), or have no competing definition in the program —
    /// a *defined* `open_via` on some other type does not sanitize.
    fn audited_method(&self, recv_head: Option<&str>, name: &str) -> bool {
        if !AUDITED_METHODS.contains(&name) {
            return false;
        }
        match recv_head {
            Some(h) => {
                AUDITED_TYPES.contains(&h)
                    || !self
                        .reg
                        .methods
                        .contains_key(&(h.to_string(), name.to_string()))
            }
            None => true,
        }
    }

    /// Introduce the bindings of `pat` with the given taint mode and
    /// (optional) static type, descending through struct/tuple patterns
    /// with per-field types where known.
    fn bind(&self, pat: &Pat, mode: BindTaint, ty: Option<&Ty>, env: &mut Env) {
        match pat {
            Pat::Ident(n) => {
                clear_place(env, n);
                match ty {
                    Some(t) => {
                        env.types.insert(n.clone(), t.clone());
                    }
                    None => {
                        env.types.remove(n);
                    }
                }
                let tainted = match mode {
                    BindTaint::No => false,
                    BindTaint::Whole => true,
                    // Known type: taint flows through `types` instead.
                    BindTaint::TypeOnly => ty.is_none(),
                };
                if tainted {
                    env.tainted.insert(n.clone());
                }
            }
            Pat::Tuple(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    self.bind(p, mode, ty.and_then(|t| t.tuple_elem(i)), env);
                }
            }
            Pat::TupleStruct(_, ps) => {
                let sub = if ps.len() == 1 {
                    ty.and_then(|t| t.elem())
                } else {
                    None
                };
                for p in ps {
                    self.bind(p, mode, sub, env);
                }
            }
            Pat::Struct(path, fs) => {
                let head = ty
                    .map(|t| t.head.as_str())
                    .filter(|h| !h.is_empty())
                    .or_else(|| path.split("::").next())
                    .unwrap_or("");
                for (fname, p) in fs {
                    self.bind(p, mode, self.reg.field_ty(head, fname), env);
                }
            }
            Pat::Wild | Pat::Other => {}
        }
    }

    /// The taint mode a tainted initializer/scrutinee imposes on its
    /// bindings: provenance-tainted (or computed) values taint wholesale,
    /// purely type-tainted places bind field-sensitively.
    fn bind_mode(&self, init: &Expr, tainted: bool, env: &Env) -> BindTaint {
        if !tainted {
            return BindTaint::No;
        }
        match init.place() {
            Some(p) if !place_tainted(env, &p) => BindTaint::TypeOnly,
            _ => BindTaint::Whole,
        }
    }

    fn eval_let(&mut self, pat: &Pat, decl_ty: Option<&Ty>, init: Option<&Expr>, env: &mut Env) {
        let Some(init) = init else {
            self.bind(pat, BindTaint::No, decl_ty, env);
            return;
        };
        // `let (a, b) = (x, y)` — element-wise, so place copies survive.
        if let (Pat::Tuple(ps), ExprKind::Tuple(es)) = (pat, &init.kind) {
            if ps.len() == es.len() {
                for (p, e) in ps.iter().zip(es) {
                    self.eval_let(p, None, Some(e), env);
                }
                return;
            }
        }
        if let Pat::Ident(n) = pat {
            // Struct literal: record per-field provenance under `n.field`.
            if let ExprKind::StructLit { path, fields, base } = &init.kind {
                clear_place(env, n);
                let ty = decl_ty.cloned().unwrap_or_else(|| Ty::simple(path));
                env.types.insert(n.clone(), ty);
                for (fname, fe) in fields {
                    if self.eval(fe, env) {
                        env.tainted.insert(format!("{n}.{fname}"));
                    }
                }
                if let Some(b) = base {
                    if self.eval(b, env) {
                        env.tainted.insert(n.clone());
                    }
                }
                return;
            }
            // Pure place: copy the provenance subtree; the static type
            // carries any type-derived taint.
            if let Some(src) = init.place() {
                let ty = decl_ty.cloned().or_else(|| self.type_of(init, env));
                clear_place(env, n);
                match ty {
                    Some(t) => {
                        env.types.insert(n.clone(), t);
                    }
                    None => {
                        env.types.remove(n);
                    }
                }
                let prefix = format!("{src}.");
                let moved: Vec<String> = env
                    .tainted
                    .iter()
                    .filter(|q| **q == src || q.starts_with(&prefix))
                    .map(|q| format!("{}{}", n, &q[src.len()..]))
                    .collect();
                let ancestor = env.tainted.iter().any(|q| {
                    src.strip_prefix(q.as_str())
                        .is_some_and(|r| r.starts_with('.'))
                });
                env.tainted.extend(moved);
                if ancestor {
                    env.tainted.insert(n.clone());
                }
                return;
            }
        }
        let t = self.eval(init, env);
        let ity = decl_ty.cloned().or_else(|| self.type_of(init, env));
        let mode = self.bind_mode(init, t, env);
        self.bind(pat, mode, ity.as_ref(), env);
    }

    fn eval_block(&mut self, b: &Block, env: &mut Env) -> bool {
        let mut tail = false;
        for s in &b.stmts {
            tail = false;
            match s {
                Stmt::Let {
                    pat,
                    ty,
                    init,
                    else_block,
                    ..
                } => {
                    self.eval_let(pat, ty.as_ref(), init.as_ref(), env);
                    if let Some(eb) = else_block {
                        self.eval_block(eb, env);
                    }
                }
                Stmt::Expr { expr, semi } => {
                    let t = self.eval(expr, env);
                    if !semi {
                        tail = t;
                    }
                }
                Stmt::Item(_) | Stmt::Empty => {}
            }
        }
        tail
    }

    fn eval_closure(
        &mut self,
        params: &[(Pat, Ty)],
        body: &Expr,
        env: &Env,
        taint_params: bool,
    ) -> bool {
        let mut child = env.clone();
        for (pat, ty) in params {
            let t = (!ty.is_unknown()).then(|| ty.clone());
            let mode = if taint_params {
                BindTaint::Whole
            } else {
                BindTaint::No
            };
            self.bind(pat, mode, t.as_ref(), &mut child);
        }
        let before = self.tainted_reads;
        let body_t = self.eval(body, &mut child);
        body_t || self.tainted_reads > before
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> bool {
        match &e.kind {
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    let n = &segs[0];
                    if place_tainted(env, n) {
                        self.tainted_reads += 1;
                        return true;
                    }
                    if let Some(t) = env.types.get(n) {
                        if self.ty_secret(&t.clone()) {
                            self.tainted_reads += 1;
                            return true;
                        }
                    }
                }
                false
            }
            ExprKind::Lit | ExprKind::Str(_) | ExprKind::Unknown => false,
            ExprKind::Field(base, _) => {
                if let Some(p) = e.place() {
                    if place_tainted(env, &p) {
                        self.tainted_reads += 1;
                        return true;
                    }
                    if let Some(ft) = self.type_of(e, env) {
                        if self.ty_secret(&ft) {
                            self.tainted_reads += 1;
                            return true;
                        }
                        return false; // known clean field type: clean sibling
                    }
                    return self.eval(base, env);
                }
                if let Some(ft) = self.type_of(e, env) {
                    let base_t = self.eval(base, env);
                    if self.ty_secret(&ft) {
                        self.tainted_reads += 1;
                        return true;
                    }
                    let _ = base_t;
                    return false;
                }
                self.eval(base, env)
            }
            ExprKind::MethodCall { recv, name, args } => {
                let recv_head = self
                    .type_of(recv, env)
                    .map(|t| t.head)
                    .filter(|h| !h.is_empty());
                let recv_taint = self.eval(recv, env);
                if self.audited_method(recv_head.as_deref(), name) {
                    for a in args {
                        self.eval(a, env);
                    }
                    return false;
                }
                let mut arg_taint = false;
                for a in args {
                    if let ExprKind::Closure { params, body } = &a.kind {
                        arg_taint |= self.eval_closure(params, body, env, recv_taint);
                    } else {
                        arg_taint |= self.eval(a, env);
                    }
                }
                if METADATA_METHODS.contains(&name.as_str()) {
                    return false;
                }
                match recv_head.as_deref() {
                    // Anything non-audited extracted from the wrapper is
                    // raw secret material (`element`, `map`, `clone`, …).
                    Some("Secret") => true,
                    Some(h) => {
                        if self
                            .reg
                            .methods
                            .contains_key(&(h.to_string(), name.clone()))
                        {
                            self.tainted_methods
                                .contains(&(h.to_string(), name.clone()))
                        } else {
                            recv_taint || arg_taint
                        }
                    }
                    None => recv_taint || arg_taint,
                }
            }
            ExprKind::Call { callee, args } => {
                let mut arg_taint = false;
                let mut eval_args = |me: &mut Self, env: &mut Env| {
                    for a in args {
                        if let ExprKind::Closure { params, body } = &a.kind {
                            arg_taint |= me.eval_closure(params, body, env, false);
                        } else {
                            arg_taint |= me.eval(a, env);
                        }
                    }
                };
                match &callee.kind {
                    ExprKind::Path(segs) if segs.len() == 1 => {
                        let name = &segs[0];
                        if audited_free(name) {
                            eval_args(self, env);
                            return false;
                        }
                        eval_args(self, env);
                        if self.tainted_free.contains(name.as_str()) {
                            return true;
                        }
                        if place_tainted(env, name) {
                            return true; // tainted closure callable
                        }
                        if name.starts_with(|c: char| c.is_ascii_uppercase()) {
                            return arg_taint; // `Some(x)` / tuple-struct ctor
                        }
                        if self.reg.free.contains_key(name.as_str()) {
                            return false; // resolved, fixpoint says clean
                        }
                        arg_taint
                    }
                    ExprKind::Path(segs) if segs.len() >= 2 => {
                        let t = &segs[segs.len() - 2];
                        let m = &segs[segs.len() - 1];
                        if self.audited_method(Some(t), m) {
                            eval_args(self, env);
                            return false;
                        }
                        eval_args(self, env);
                        if t == "Secret" {
                            return true;
                        }
                        if self.tainted_methods.contains(&(t.clone(), m.clone())) {
                            return true;
                        }
                        if m.starts_with(|c: char| c.is_ascii_uppercase()) {
                            return arg_taint; // enum-variant ctor
                        }
                        if self.reg.methods.contains_key(&(t.clone(), m.clone())) {
                            return false;
                        }
                        arg_taint
                    }
                    _ => {
                        let c = self.eval(callee, env);
                        eval_args(self, env);
                        c || arg_taint
                    }
                }
            }
            ExprKind::Macro {
                name,
                args,
                raw_idents,
                strs,
            } => {
                let mut any = false;
                let mut offender: Option<(String, &'static str)> = None;
                for a in args {
                    let t = self.eval(a, env);
                    if t {
                        any = true;
                        if offender.is_none() {
                            offender = Some(offender_of(a));
                        }
                    }
                }
                for s in strs {
                    for cap in inline_captures(s) {
                        let t = place_tainted(env, &cap)
                            || env
                                .types
                                .get(&cap)
                                .is_some_and(|t| self.reg.ty_secret(t, self.self_ty));
                        if t {
                            any = true;
                            if offender.is_none() {
                                offender = Some((cap, "an inline capture of a local bound from"));
                            }
                        }
                    }
                }
                // Sub-parse failed (no args recovered): fall back to the
                // raw identifier bag against provenance-tainted locals.
                if args.is_empty() && offender.is_none() {
                    for id in raw_idents {
                        if place_tainted(env, id) {
                            any = true;
                            offender = Some((id.clone(), "a local bound from secret-returning"));
                            break;
                        }
                    }
                }
                if self.emit && SINK_MACROS.contains(&name.as_str()) {
                    if let Some((who, how)) = offender {
                        if !self.model.allowed_line(LINT, e.line) {
                            self.findings.push(Finding {
                                lint: LINT,
                                file: self.model.rel.clone(),
                                line: e.line,
                                function: self.fun_name.to_string(),
                                message: format!(
                                    "{}! formats `{}` — {} function material that never passed \
                                     an audited open (`open_via`); secret-typed values must open \
                                     through the DisclosureLog before they may be rendered",
                                    name, who, how
                                ),
                                snippet: self.model.line_text(e.line).to_string(),
                            });
                        }
                    }
                }
                any
            }
            ExprKind::Closure { params, body } => self.eval_closure(params, body, env, false),
            ExprKind::Binary(_, a, b) => {
                let ta = self.eval(a, env);
                let tb = self.eval(b, env);
                ta || tb
            }
            ExprKind::Unary(i) | ExprKind::Try(i) | ExprKind::Cast(i, _) => self.eval(i, env),
            ExprKind::Index { base, index } => {
                let bt = self.eval(base, env);
                self.eval(index, env);
                bt
            }
            ExprKind::StructLit { fields, base, .. } => {
                let mut t = false;
                for (_, fe) in fields {
                    t |= self.eval(fe, env);
                }
                if let Some(b) = base {
                    t |= self.eval(b, env);
                }
                t
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                let mut t = false;
                for e in es {
                    t |= self.eval(e, env);
                }
                t
            }
            ExprKind::If { cond, then, els } => {
                self.eval(cond, env);
                let t1 = self.eval_block(then, env);
                let t2 = els.as_ref().is_some_and(|e| self.eval(e, env));
                t1 || t2
            }
            ExprKind::Match { scrutinee, arms } => {
                let taint = self.eval(scrutinee, env);
                let mode = self.bind_mode(scrutinee, taint, env);
                let sty = self.type_of(scrutinee, env);
                let mut t = false;
                for arm in arms {
                    self.bind(&arm.pat, mode, sty.as_ref(), env);
                    if let Some(g) = &arm.guard {
                        self.eval(g, env);
                    }
                    t |= self.eval(&arm.body, env);
                }
                t
            }
            ExprKind::While { cond, body } => {
                self.eval(cond, env);
                self.eval_block(body, env);
                false
            }
            ExprKind::ForLoop { pat, iter, body } => {
                let taint = self.eval(iter, env);
                let mode = self.bind_mode(iter, taint, env);
                let ety = self.type_of(iter, env).and_then(|t| t.elem().cloned());
                self.bind(pat, mode, ety.as_ref(), env);
                self.eval_block(body, env);
                false
            }
            ExprKind::Loop(b) => {
                self.eval_block(b, env);
                false
            }
            ExprKind::Block(b) => self.eval_block(b, env),
            ExprKind::Return(v) => {
                if let Some(v) = v {
                    let t = self.eval(v, env);
                    self.ret_tainted |= t;
                }
                false
            }
            ExprKind::Break(v) => {
                if let Some(v) = v {
                    self.eval(v, env);
                }
                false
            }
            ExprKind::Assign { lhs, rhs } => {
                let rt = self.eval(rhs, env);
                if let Some(p) = lhs.place() {
                    if rt {
                        env.tainted.insert(p);
                    }
                } else {
                    self.eval(lhs, env);
                }
                false
            }
            ExprKind::Range(a, b) => {
                let ta = a.as_ref().is_some_and(|x| self.eval(x, env));
                let tb = b.as_ref().is_some_and(|x| self.eval(x, env));
                ta || tb
            }
        }
    }
}

/// How to describe a tainted macro argument in the finding message.
fn offender_of(e: &Expr) -> (String, &'static str) {
    if let Some(p) = e.place() {
        if p.contains('.') {
            return (p, "a field projection of `Secret`-bearing");
        }
        return (p, "a local bound from secret-returning");
    }
    match &e.kind {
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if let Some(l) = segs.last() {
                    return (l.clone(), "a call to secret-returning");
                }
            }
            ("a call".to_string(), "a call to secret-returning")
        }
        ExprKind::MethodCall { name, .. } => (name.clone(), "a call to secret-returning"),
        _ => ("this expression".to_string(), "an expression deriving"),
    }
}

/// Abstractly execute one function. Returns whether its return value is
/// tainted; findings accumulate only when `emit` is set.
fn analyze_entry(
    reg: &Registry,
    tainted_free: &BTreeSet<String>,
    tainted_methods: &BTreeSet<(String, String)>,
    e: &FnEntry,
    emit: bool,
) -> (bool, Vec<Finding>) {
    let Some(model) = reg.models.get(e.model) else {
        return (false, Vec::new());
    };
    let mut it = Intra {
        reg,
        tainted_free,
        tainted_methods,
        model,
        fun_name: &e.fun.name,
        self_ty: e.self_ty.as_deref(),
        emit,
        findings: Vec::new(),
        ret_tainted: false,
        tainted_reads: 0,
    };
    let mut env = Env::default();
    if e.fun.has_self {
        if let Some(st) = &e.self_ty {
            env.types.insert("self".to_string(), Ty::simple(st));
        }
    }
    for (pat, ty) in &e.fun.params {
        let t = (!ty.is_unknown()).then_some(ty);
        it.bind(pat, BindTaint::No, t, &mut env);
    }
    let tail = it.eval_block(&e.fun.body, &mut env);
    (it.ret_tainted || tail, it.findings)
}

/// Runs the cross-function taint pass over the registry of a set of
/// (secure-scope) file models: seed from declared return types, propagate
/// function-level taint to a fixpoint by abstract interpretation, then
/// report formatter sinks fed by secret material.
pub(crate) fn run(reg: &Registry) -> Vec<Finding> {
    let mut tainted_free: BTreeSet<String> = BTreeSet::new();
    let mut tainted_methods: BTreeSet<(String, String)> = BTreeSet::new();
    for e in &reg.fns {
        if e.fun.is_test || is_audited_entry(e) {
            continue;
        }
        if !reg.ty_secret(&e.fun.ret, e.self_ty.as_deref()) {
            continue;
        }
        match &e.self_ty {
            // Methods are seeded even inside secret.rs: resolution gates
            // them behind an actual `Secret`-typed receiver.
            Some(st) => {
                tainted_methods.insert((st.clone(), e.fun.name.clone()));
            }
            None => {
                if !e.in_secret_rs {
                    tainted_free.insert(e.fun.name.clone());
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for e in &reg.fns {
            if e.fun.is_test || !e.returns_value() || is_audited_entry(e) {
                continue;
            }
            let already = match &e.self_ty {
                Some(st) => tainted_methods.contains(&(st.clone(), e.fun.name.clone())),
                None => tainted_free.contains(&e.fun.name),
            };
            if already {
                continue;
            }
            let (ret_t, _) = analyze_entry(reg, &tainted_free, &tainted_methods, e, false);
            if ret_t {
                match &e.self_ty {
                    Some(st) => {
                        tainted_methods.insert((st.clone(), e.fun.name.clone()));
                    }
                    None => {
                        tainted_free.insert(e.fun.name.clone());
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut out = Vec::new();
    for e in &reg.fns {
        if e.fun.is_test {
            continue;
        }
        let (_, f) = analyze_entry(reg, &tainted_free, &tainted_methods, e, true);
        out.extend(f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(rel, src)| FileModel::parse(rel, src))
            .collect()
    }

    fn run(models: &[FileModel]) -> Vec<Finding> {
        super::run(&Registry::build(models))
    }

    fn lint_count(f: &[Finding]) -> usize {
        f.iter().filter(|x| x.lint == LINT).count()
    }

    #[test]
    fn direct_seed_and_sink_same_file() {
        let src = r#"
fn draw(prg: &mut Prg) -> Secret<Vec<R64>> { Secret::new(prg.ring_vec(4)) }
fn leak(prg: &mut Prg) -> String {
    let noise = draw(prg);
    format!("{:?}", noise)
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 1, "{f:?}");
        assert_eq!(f[0].function, "leak");
        assert!(f[0].message.contains("noise"));
    }

    #[test]
    fn taint_propagates_across_files_and_wrapper_types() {
        // draw() returns Secret; summarize() hides it inside a struct with
        // an innocuous declared type; report() (another file) formats the
        // result two calls downstream.
        let a = r#"
pub fn draw(prg: &mut Prg) -> Secret<Vec<R64>> { Secret::new(prg.ring_vec(4)) }
pub fn summarize(prg: &mut Prg) -> Summary {
    Summary { label: "round", payload: draw(prg) }
}
"#;
        let b = r#"
fn report(prg: &mut Prg) -> String {
    let stats = summarize(prg);
    format!("{stats:?}")
}
"#;
        let f = run(&models(&[
            ("crates/mpc/src/a.rs", a),
            ("crates/core/src/secure/b.rs", b),
        ]));
        assert_eq!(lint_count(&f), 1, "{f:?}");
        assert_eq!(f[0].function, "report");
        assert_eq!(f[0].file, "crates/core/src/secure/b.rs");
    }

    #[test]
    fn audited_open_sanitizes_the_chain() {
        let src = r#"
fn draw(prg: &mut Prg) -> Secret<Vec<R64>> { Secret::new(prg.ring_vec(4)) }
fn open_and_report(ctx: &mut Ctx, prg: &mut Prg) -> String {
    let shares = draw(prg);
    let total = ctx.open_local(shares, Some("total"));
    format!("{total:?}")
}
fn derived(ctx: &mut Ctx, prg: &mut Prg) -> Vec<R64> {
    let s = draw(prg);
    reconstruct_ring(&s)
}
fn uses_derived(ctx: &mut Ctx, prg: &mut Prg) -> String {
    let v = derived(ctx, prg);
    format!("{v:?}")
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 0, "{f:?}");
    }

    #[test]
    fn local_to_local_moves_tracked_and_pragma_respected() {
        let src = r#"
fn draw(prg: &mut Prg) -> Secret<Vec<R64>> { Secret::new(prg.ring_vec(4)) }
fn leak(prg: &mut Prg) {
    let a = draw(prg);
    let b = a;
    println!("{:?}", b);
}
fn allowed(prg: &mut Prg) {
    let a = draw(prg);
    // dash-analyze::allow(cross-function-taint): demo of redacted Debug
    println!("{:?}", a);
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 1, "{f:?}");
        assert_eq!(f[0].function, "leak");
    }

    #[test]
    fn wrapper_module_combinators_do_not_seed() {
        // `map` defined in secret.rs returning Secret must not taint every
        // iterator `.map(...)` call in the workspace.
        let secret_rs = r#"
impl<T> Secret<T> {
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Secret<U> { Secret(f(self.0)) }
}
"#;
        let user = r#"
fn doubles(xs: &[u64]) -> Vec<u64> {
    let out = xs.iter().map(|x| x * 2).collect::<Vec<_>>();
    out
}
fn show(xs: &[u64]) -> String {
    let d = doubles(xs);
    format!("{d:?}")
}
"#;
        let f = run(&models(&[
            ("crates/mpc/src/secret.rs", secret_rs),
            ("crates/mpc/src/y.rs", user),
        ]));
        assert_eq!(lint_count(&f), 0, "{f:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
fn draw(prg: &mut Prg) -> Secret<Vec<R64>> { Secret::new(prg.ring_vec(4)) }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let s = draw(&mut prg);
        println!("{s:?}");
    }
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 0, "{f:?}");
    }

    #[test]
    fn field_projection_is_tracked_per_path() {
        let src = r#"
pub struct Pkt { label: String, share_vec: Secret<Vec<R64>> }
fn leak_field(pkt: &Pkt) -> String {
    format!("{:?}", pkt.share_vec)
}
fn clean_sibling(pkt: &Pkt) -> String {
    format!("{}", pkt.label)
}
fn leak_whole(pkt: &Pkt) -> String {
    format!("{pkt:?}")
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 2, "{f:?}");
        let fns: Vec<&str> = f.iter().map(|x| x.function.as_str()).collect();
        assert!(fns.contains(&"leak_field"));
        assert!(fns.contains(&"leak_whole"));
        assert!(!fns.contains(&"clean_sibling"));
    }

    #[test]
    fn closure_capture_and_combinator_params_taint() {
        let src = r#"
fn draw(prg: &mut Prg) -> Secret<Vec<R64>> { Secret::new(prg.ring_vec(4)) }
fn leak_capture(prg: &mut Prg) -> String {
    let noise = draw(prg);
    let grab = move || noise;
    format!("{:?}", grab())
}
fn leak_combinator(s: &Secret<Vec<R64>>) {
    s.map(|row| println!("{row:?}"));
}
fn clean_combinator(xs: &[u64]) -> u64 {
    xs.iter().map(|x| x + 1).sum()
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 2, "{f:?}");
        let fns: Vec<&str> = f.iter().map(|x| x.function.as_str()).collect();
        assert!(fns.contains(&"leak_capture"));
        assert!(fns.contains(&"leak_combinator"));
    }

    #[test]
    fn fake_open_on_known_type_does_not_sanitize() {
        // A *defined* `open_via` on a non-audited type must not launder,
        // while an unresolved `open_local` on an audited-typed receiver
        // still does.
        let src = r#"
pub struct RoundState { stash: Secret<Vec<R64>> }
impl RoundState {
    pub fn open_via(&self, log: &mut Log) -> Vec<R64> { self.stash.reveal_raw() }
}
fn leak(st: &RoundState, log: &mut Log) -> String {
    let v = st.open_via(log);
    format!("{v:?}")
}
fn fine(ctx: &mut PartyCtx, s: Secret<Vec<R64>>) -> String {
    let v = ctx.open_local(s, None);
    format!("{v:?}")
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 1, "{f:?}");
        assert_eq!(f[0].function, "leak");
    }

    #[test]
    fn destructuring_is_field_sensitive_on_type_taint() {
        let src = r#"
pub struct Pkt { label: String, share_vec: Secret<Vec<R64>> }
fn split(pkt: Pkt) -> String {
    let Pkt { label, share_vec } = pkt;
    format!("{label} ok")
}
fn split_leak(pkt: Pkt) -> String {
    let Pkt { label, share_vec } = pkt;
    format!("{share_vec:?}")
}
"#;
        let f = run(&models(&[("crates/mpc/src/x.rs", src)]));
        assert_eq!(lint_count(&f), 1, "{f:?}");
        assert_eq!(f[0].function, "split_leak");
    }

    #[test]
    fn inline_capture_parsing() {
        assert_eq!(
            inline_captures("\"{a} {b:?} {{escaped}} {0} {c:>8}\""),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
    }
}
