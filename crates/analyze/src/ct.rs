//! Constant-time discipline for share arithmetic (`constant-time`).
//!
//! The disclosure log and taint passes pin *what* the protocols open;
//! they say nothing about timing. A single data-dependent branch,
//! division, or table lookup in the ring arithmetic leaks
//! share-dependent timing to anyone co-resident with a party. This lint
//! denies the shapes that produce such leaks inside the mpc crate's
//! arithmetic and share modules, working over the parsed AST
//! (`crate::ast`):
//!
//! - [`ExprKind::If`]/[`ExprKind::While`]/[`ExprKind::Match`] whose
//!   condition (or scrutinee) reads a secret-tainted value;
//! - [`ExprKind::Binary`] `%`, `/`, or any comparison with a tainted
//!   operand (shifts are distinct operators in the AST, so `<<`/`>>`
//!   never need disambiguation);
//! - [`ExprKind::Index`] where the index expression is tainted.
//!
//! **Taint** starts from function parameters whose declared type mentions
//! an element/secret type (`R64`, `Secret`, `TripleBatch` — plus
//! raw `u64`/`u128`/`i64` words inside the element modules themselves,
//! where every word *is* an element), from `self` in
//! the element/share modules, and from locals bound from tainted
//! expressions or from calls into the element-producing call graph — a
//! seed-and-fixpoint closure over the program registry, seeded on
//! element-returning signatures.
//!
//! **Public metadata escapes the taint**: an access chain that goes
//! through a length/shape method (`len`, `is_empty`, `scalar_count`,
//! `first`, `get`, …) is public — `if shares.len() != n` is fine,
//! `if shares[0].value() > n` is not. A cast (`as`) ends a *binary
//! operand* chain: casts launder provenance for arithmetic, which keeps
//! the fixed-point decode divisions (`v.as_i64() as f64 / scale`) clean —
//! division by a *public* scale after a cast is exactly the pattern the
//! codec uses on purpose. Branch conditions and index expressions look
//! through casts: a branch on `(x.0 & 7) as usize` still branches on
//! share material.
//!
//! Test code is exempt. There is no other exception: every non-test line
//! of the arithmetic modules is in scope.

use crate::ast::{BinOp, Block, Expr, ExprKind, Node, Stmt};
use crate::model::FileModel;
use crate::registry::Registry;
use crate::Finding;
use std::collections::BTreeSet;

const LINT: &str = "constant-time";

/// Basenames of the mpc modules under constant-time discipline. The
/// protocol/transport layers above them branch on *public* control flow
/// (lengths, tags, party ids) and are out of scope by design.
const CT_MODULES: [&str; 5] = ["ring.rs", "ctime.rs", "fixed.rs", "dealer.rs", "secret.rs"];

/// Modules where every raw machine word is an element (so `u64`/`u128`/
/// `i64` parameters are secret too, not just the named element types).
const WORD_MODULES: [&str; 2] = ["ring.rs", "ctime.rs"];

/// Type identifiers that mark a parameter as secret material.
fn secret_type_ident(s: &str) -> bool {
    matches!(s, "R64" | "Secret" | "TripleBatch")
}

/// Raw word types — secret only inside the element modules.
fn word_type_ident(s: &str) -> bool {
    matches!(s, "u64" | "u128" | "i64" | "i128")
}

/// Methods whose result is public shape metadata, ending a taint chain.
/// Lengths and emptiness are exchanged in the clear by the protocols;
/// `first`/`get` appear only in `Option`-emptiness dispatch.
const SANITIZER_METHODS: [&str; 8] = [
    "len",
    "is_empty",
    "scalar_count",
    "first",
    "last",
    "get",
    "capacity",
    "count",
];

/// Audited-open / reconstruction identifiers: a body that reaches one
/// returns *opened* data, ending element-taint propagation through it.
fn sanitizing_ident(name: &str) -> bool {
    matches!(name, "open_via" | "open_local" | "open_sum") || name.starts_with("reconstruct_")
}

fn basename(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel)
}

/// Whether `rel` is under constant-time discipline. Fixture files named
/// `ct_*.rs` are scoped too, so the lint is testable standalone.
pub fn in_ct_scope(rel: &str) -> bool {
    let base = basename(rel);
    if base.starts_with("ct_") {
        return true;
    }
    CT_MODULES.contains(&base) && rel.contains("crates/mpc/src")
}

fn is_word_module(rel: &str) -> bool {
    let base = basename(rel);
    WORD_MODULES.contains(&base) || base.starts_with("ct_")
}

/// `self` carries element data everywhere except the codec, whose fields
/// are public configuration (`frac_bits`).
fn self_is_secret(rel: &str) -> bool {
    basename(rel) != "fixed.rs"
}

/// The bare names every expression in a body calls, plus whether the
/// body reaches an audited open (which ends propagation through it).
fn body_calls(b: &Block) -> (BTreeSet<String>, bool) {
    let mut calls = BTreeSet::new();
    b.walk(&mut |e| match &e.kind {
        ExprKind::Call { callee, .. } => {
            if let ExprKind::Path(segs) = &callee.kind {
                calls.extend(segs.last().cloned());
            }
        }
        ExprKind::MethodCall { name, .. } => {
            calls.insert(name.clone());
        }
        _ => {}
    });
    let mut idents = Vec::new();
    b.collect_idents(&mut idents);
    (calls, idents.iter().any(|i| sanitizing_ident(i)))
}

/// The element-producing call-graph closure: seeds are non-test fns whose
/// declared return type mentions an element type (`Self` counts inside
/// the word modules — `R64::from_i64 -> Self`), excluding the Secret wrapper's
/// own combinators; taint propagates through every value-returning,
/// non-sanitizing caller by bare name.
fn element_fns(reg: &Registry) -> BTreeSet<String> {
    struct Facts {
        name: String,
        returns_value: bool,
        sanitizes: bool,
        calls: BTreeSet<String>,
    }
    let mut facts = Vec::new();
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    for e in &reg.fns {
        if e.fun.is_test {
            continue;
        }
        let Some(m) = reg.models.get(e.model) else {
            continue;
        };
        let (calls, sanitizes) = body_calls(&e.fun.body);
        let seed = !m.rel.ends_with("mpc/src/secret.rs")
            && (e.fun.ret.idents.iter().any(|i| secret_type_ident(i))
                || (is_word_module(&m.rel) && e.fun.ret.mentions("Self")));
        if seed {
            tainted.insert(e.fun.name.clone());
        }
        facts.push(Facts {
            name: e.fun.name.clone(),
            returns_value: e.returns_value(),
            sanitizes,
            calls,
        });
    }
    loop {
        let mut changed = false;
        for f in &facts {
            if !f.returns_value || f.sanitizes || tainted.contains(&f.name) {
                continue;
            }
            if f.calls.iter().any(|c| tainted.contains(c)) {
                tainted.insert(f.name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    tainted
}

/// First tainted value read under `n`, in source order, if any: a tainted
/// local (or a field projection rooted at one), or a call into the
/// element-producing graph. Chains through public-metadata methods are
/// clean. `casts_opaque` selects binary-operand semantics, where `as`
/// launders provenance.
fn offender(
    n: Node,
    locals: &BTreeSet<String>,
    fns: &BTreeSet<String>,
    casts_opaque: bool,
) -> Option<String> {
    let walk = |x: &Expr| offender(Node::Expr(x), locals, fns, casts_opaque);
    let children = |n: Node| {
        let mut first = None;
        n.for_each_child(&mut |c| {
            if first.is_none() {
                first = offender(c, locals, fns, casts_opaque);
            }
        });
        first
    };
    let Node::Expr(e) = n else {
        return children(n);
    };
    match &e.kind {
        ExprKind::Path(segs) => match segs.as_slice() {
            [local] if locals.contains(local) => Some(local.clone()),
            _ => None,
        },
        ExprKind::Field(base, _) => {
            if let Some(p) = e.place() {
                let root = p.split('.').next().unwrap_or("");
                return locals.contains(root).then(|| root.to_string());
            }
            walk(base)
        }
        ExprKind::MethodCall { recv, name, args } => {
            if SANITIZER_METHODS.contains(&name.as_str()) {
                return None; // public shape metadata ends the chain
            }
            if let Some(o) = walk(recv) {
                return Some(o);
            }
            if fns.contains(name.as_str()) {
                return Some(name.clone());
            }
            args.iter().find_map(walk)
        }
        ExprKind::Call { callee, args } => {
            if let ExprKind::Path(segs) = &callee.kind {
                if let Some(l) = segs.last() {
                    if fns.contains(l.as_str()) {
                        return Some(l.clone());
                    }
                }
            } else if let Some(o) = walk(callee) {
                return Some(o);
            }
            args.iter().find_map(walk)
        }
        ExprKind::Cast(..) if casts_opaque => None,
        _ => children(n),
    }
}

fn op_str(op: BinOp) -> Option<&'static str> {
    Some(match op {
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Gt => ">",
        BinOp::Le => "<=",
        BinOp::Ge => ">=",
        _ => return None,
    })
}

/// Per-function shape scan.
struct CtScan<'a> {
    m: &'a FileModel,
    fun_name: &'a str,
    locals: BTreeSet<String>,
    fns: &'a BTreeSet<String>,
    seen_lines: BTreeSet<usize>,
    out: Vec<Finding>,
}

impl CtScan<'_> {
    fn push(&mut self, line: usize, message: String) {
        if !self.seen_lines.insert(line) {
            return;
        }
        self.out.push(Finding {
            lint: LINT,
            file: self.m.rel.clone(),
            line,
            function: self.fun_name.to_string(),
            message,
            snippet: self.m.line_text(line).to_string(),
        });
    }

    fn offender(&self, e: &Expr, casts_opaque: bool) -> Option<String> {
        offender(Node::Expr(e), &self.locals, self.fns, casts_opaque)
    }

    fn scan(&mut self, n: Node) {
        match n {
            Node::Expr(e) => self.scan_expr(e),
            Node::Block(b) => self.scan_block(b),
            // A nested fn is a registry entry of its own.
            Node::Item(_) => {}
        }
    }

    fn scan_block(&mut self, b: &Block) {
        for s in &b.stmts {
            s.for_each_child(&mut |c| self.scan(c));
            // Locals bound from tainted expressions join the taint set
            // (forward pass: later statements see earlier bindings).
            if let Stmt::Let {
                pat, init: Some(e), ..
            } = s
            {
                if self.offender(e, false).is_some() {
                    let mut binds = Vec::new();
                    pat.bindings(&mut binds);
                    self.locals.extend(binds);
                }
            }
        }
    }

    /// Checks the shape of `e` itself, then everything under it.
    fn scan_expr(&mut self, e: &Expr) {
        let branch = match &e.kind {
            ExprKind::If { cond, .. } => Some(("if", cond)),
            ExprKind::While { cond, .. } => Some(("while", cond)),
            ExprKind::Match { scrutinee, .. } => Some(("match", scrutinee)),
            _ => None,
        };
        if let Some((kw, cond)) = branch {
            if let Some(name) = self.offender(cond, false) {
                self.push(
                    e.line,
                    format!(
                        "`{kw}` branches on secret value `{name}` — control flow must not \
                         depend on share material; use the ctime mask primitives \
                         (ct_select / ct_eq) instead"
                    ),
                );
            }
        }
        match &e.kind {
            ExprKind::Binary(op, a, b) => {
                if let Some(ops) = op_str(*op) {
                    let off = self.offender(a, true).or_else(|| self.offender(b, true));
                    if let Some(name) = off {
                        let what = match ops {
                            "%" | "/" => "divides/reduces",
                            _ => "compares",
                        };
                        self.push(
                            e.line,
                            format!(
                                "`{ops}` {what} secret value `{name}` — variable-time on this \
                                 hardware; use branch-free mask arithmetic (wrapping ops + \
                                 ctime masks) instead"
                            ),
                        );
                    }
                }
            }
            ExprKind::Index { index, .. } => {
                if let Some(name) = self.offender(index, false) {
                    self.push(
                        e.line,
                        format!(
                            "table lookup indexed by secret value `{name}` — memory access \
                             patterns must not depend on share material"
                        ),
                    );
                }
            }
            _ => {}
        }
        e.for_each_child(&mut |c| self.scan(c));
    }
}

/// Runs the constant-time lint over the registry of a set of
/// (secure-scope) file models. The whole set feeds the element-producing
/// call-graph closure; only the arithmetic/share modules are scanned for
/// violating shapes.
pub(crate) fn run(reg: &Registry) -> Vec<Finding> {
    let tainted_fns = element_fns(reg);
    let mut out: Vec<Finding> = Vec::new();
    for e in &reg.fns {
        if e.fun.is_test {
            continue;
        }
        let Some(m) = reg.models.get(e.model) else {
            continue;
        };
        if !in_ct_scope(&m.rel) {
            continue;
        }
        let word_secret = is_word_module(&m.rel);
        // Seed the local taint set from the signature.
        let mut locals: BTreeSet<String> = BTreeSet::new();
        if e.fun.has_self && self_is_secret(&m.rel) {
            locals.insert("self".to_string());
        }
        for (pat, ty) in &e.fun.params {
            let secret = ty
                .idents
                .iter()
                .any(|i| secret_type_ident(i) || (word_secret && word_type_ident(i)));
            if secret {
                let mut binds = Vec::new();
                pat.bindings(&mut binds);
                locals.extend(binds);
            }
        }
        let mut scan = CtScan {
            m,
            fun_name: &e.fun.name,
            locals,
            fns: &tainted_fns,
            seen_lines: BTreeSet::new(),
            out: Vec::new(),
        };
        scan.scan_block(&e.fun.body);
        out.extend(scan.out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn run_on(rel: &str, src: &str) -> Vec<Finding> {
        let models = [FileModel::parse(rel, src)];
        run(&Registry::build(&models))
    }

    #[test]
    fn scope_is_the_arithmetic_core() {
        assert!(in_ct_scope("crates/mpc/src/ring.rs"));
        assert!(in_ct_scope("crates/mpc/src/ctime.rs"));
        assert!(in_ct_scope("crates/mpc/src/dealer.rs"));
        assert!(!in_ct_scope("crates/mpc/src/net.rs"));
        assert!(!in_ct_scope("crates/mpc/src/protocol.rs"));
        assert!(!in_ct_scope("crates/core/src/secure/aggregate.rs"));
        assert!(in_ct_scope("ct_fixture.rs"));
    }

    #[test]
    fn branch_on_secret_param_denied() {
        let f = run_on(
            "crates/mpc/src/ring.rs",
            "fn reduce(v: u64) -> u64 { if v >= M { v - M } else { v } }",
        );
        assert!(!f.is_empty(), "expected a finding");
        assert!(f.iter().all(|x| x.lint == "constant-time"));
        assert!(
            f[0].message.contains("branches on secret value `v`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn match_on_secret_scrutinee_denied() {
        let f = run_on(
            "crates/mpc/src/ring.rs",
            "fn sign(x: R64) -> i32 { match x.0 { 0 => 0, _ => 1 } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`match` branches"));
    }

    #[test]
    fn modulo_and_division_on_secret_denied() {
        let f = run_on(
            "crates/mpc/src/ring.rs",
            "fn bad(x: R64) -> u64 { x.0 % 7 }\nfn bad2(x: R64) -> u64 { x.0 / 4 }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("divides/reduces")));
    }

    #[test]
    fn comparison_via_local_from_element_call_denied() {
        // `s` is bound from a call into the element-producing graph and
        // then compared: the call-graph closure must catch it.
        let src = "fn draw(prg: &mut Prg) -> R64 { R64::new(prg.next()) }\n\
                   fn check(prg: &mut Prg) -> bool { let s = draw(prg); s.0 > 10 }";
        let f = run_on("crates/mpc/src/ring.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("compares secret value `s`"));
    }

    #[test]
    fn secret_indexed_lookup_denied() {
        let f = run_on(
            "crates/mpc/src/ring.rs",
            "fn lut(x: R64, tbl: &[u64; 8]) -> u64 { tbl[(x.0 & 7) as usize] }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0]
            .message
            .contains("table lookup indexed by secret value `x`"));
    }

    #[test]
    fn branchless_mask_arithmetic_is_clean() {
        let src = "fn reduce_once(v: u64) -> u64 { v.wrapping_sub(M & ge_mask(v, M)) }\n\
                   fn neg(x: R64) -> R64 { R64((M - x.0) & nonzero_mask(x.0)) }\n\
                   fn fold(v: u64) -> u64 { (v >> 61) + (v & M) }\n\
                   fn ladder(mut e: u64) -> u64 { e >>= 1; e }";
        assert!(run_on("crates/mpc/src/ring.rs", src).is_empty());
    }

    #[test]
    fn public_shape_branches_are_clean() {
        // Lengths and emptiness are public metadata; `n` is a public
        // usize; casts (`as`) end a binary operand chain.
        let src = "fn recon(shares: &[R64], n: usize) -> R64 {\n\
                     if shares.len() != n { return R64::ZERO; }\n\
                     if n > 4 { R64::ZERO } else { R64::ONE }\n\
                   }\n\
                   fn decode(x: R64, scale: f64) -> f64 { x.as_i64() as f64 / scale }";
        assert!(run_on("crates/mpc/src/dealer.rs", src).is_empty());
    }

    #[test]
    fn test_code_exempt() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn helper(x: R64) -> bool { x.0 == 0 }\n\
                   }";
        assert!(run_on("crates/mpc/src/ring.rs", src).is_empty());
    }

    #[test]
    fn raw_words_secret_only_in_element_modules() {
        // In dealer.rs a bare u64 parameter is public (a length, a seed
        // index); the same signature in ring.rs is share material.
        let src = "fn pick(n: u64) -> u64 { if n > 4 { 1 } else { 0 } }";
        assert!(run_on("crates/mpc/src/dealer.rs", src).is_empty());
        assert_eq!(run_on("crates/mpc/src/ring.rs", src).len(), 1);
    }

    #[test]
    fn equality_operands_walk_through_parens() {
        let f = run_on(
            "crates/mpc/src/ring.rs",
            "fn cmp(a: R64, b: R64) -> bool { (a.0 ^ b.0) == 0 }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("compares"));
    }

    #[test]
    fn impl_trait_param_arrow_does_not_hide_the_share_param() {
        // Regression: the token scanner mis-took the `>` of `->` inside an
        // `impl Fn` parameter for a closing angle and mis-segmented the
        // parameter list, losing `share`'s taint.
        let src = "fn apply(g: impl Fn() -> u64, share: R64) -> u64 {\n\
                     if share.0 > 3 { g() } else { 0 }\n\
                   }";
        let f = run_on("crates/mpc/src/ring.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("branches on secret value `share`"));
    }

    #[test]
    fn branch_condition_sees_through_casts() {
        // Casts launder binary operands (decode divisions) but not branch
        // conditions: this still branches on share material.
        let f = run_on(
            "crates/mpc/src/ring.rs",
            "fn pick(x: R64) -> u64 { if lut_idx(x.0 as usize) { 1 } else { 0 } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("branches on secret value `x`"));
    }
}
