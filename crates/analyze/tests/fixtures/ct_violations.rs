//! Seeded `constant-time` violations. Each bad function below must be
//! flagged exactly once; the clean/pragma'd/test functions must not be.
//! The `ct_` filename prefix puts this fixture in the lint's scope as an
//! element ("word") module, so raw `u64` parameters count as secret.

const M: u64 = (1 << 61) - 1;

struct R64(u64);
struct Prg;
struct TripleBatch {
    count: usize,
    words: Vec<R64>,
}

// BAD 1: data-dependent branch in a reduction.
fn branchy_reduce(v: u64) -> u64 {
    if v >= M { v.wrapping_sub(M) } else { v }
}

// BAD 2: `%` is variable-time division in disguise.
fn secret_mod(x: R64, m: u64) -> u64 {
    x.0 % m
}

// BAD 3: secret-indexed table lookup (cache-timing leak).
fn table_lookup(x: R64, tbl: &[u64; 8]) -> u64 {
    tbl[(x.0 & 7) as usize]
}

// BAD 4: comparison of share words.
fn compare_shares(a: R64, b: R64) -> bool {
    a.0 < b.0
}

// BAD 5: `match` scrutinee reads a share.
fn sign_match(x: R64) -> i32 {
    match x.0 {
        0 => 0,
        _ => 1,
    }
}

// Element-producing helper: seeds the call-graph closure.
fn next_mask(_prg: &mut Prg) -> R64 {
    R64(7)
}

// BAD 6: local bound from an element-producing call, then branched on.
fn local_leak(prg: &mut Prg) -> u64 {
    let s = next_mask(prg);
    if s.0 > 10 { 1 } else { 0 }
}

// BAD 7: plain division of a share word.
fn div_leak(x: R64) -> u64 {
    x.0 / 4
}

// BAD 8: the same branch inside the diverging block of a `let … else`.
fn let_else_leak(x: R64, t: &[u64]) -> u64 {
    let Some(v) = t.first() else {
        if x.0 > 3 { return 1; }
        return 0;
    };
    *v
}

// BAD 9: the same branch inside a fn nested in a body.
fn nested_leak(x: R64) -> u64 {
    fn inner(y: R64) -> u64 {
        if y.0 > 3 { 1 } else { 0 }
    }
    inner(x)
}

// BAD 10: the same comparison in a macro statement behind an attribute.
fn attributed_assert_leak(x: R64) {
    #[allow(clippy::all)]
    debug_assert!(x.0 > 3);
}

// BAD 11: `+ x.0` after a cast is an operand, not a bound on the cast's
// type (`n` is public and the cast ends its chain; `x.0` is neither).
fn cast_sum_leak(n: u32, x: R64) -> u64 {
    (n as u64 + x.0) % 3
}

// BAD 12: a dealt batch is share material by type name.
fn batch_leak(t: &TripleBatch) -> u64 {
    match t.words.iter().map(|w| w.0).max() {
        Some(0) => 0,
        _ => 1,
    }
}

// CLEAN: a batch's shape is public; `.count()` sanitizes.
fn batch_shape(t: &TripleBatch) -> usize {
    if t.words.iter().count() > 4 { t.count } else { 0 }
}

// CLEAN: branch-free mask arithmetic — the shapes the lint demands.
fn branchless_reduce(v: u64) -> u64 {
    let folded = (v >> 61).wrapping_add(v & M);
    folded.wrapping_sub(M & ge_mask(folded, M))
}

fn ge_mask(a: u64, b: u64) -> u64 {
    let d = a.wrapping_sub(b);
    !((((!a) & b) | (((!a) | b) & d)) >> 63).wrapping_neg()
}

// CLEAN: `usize` counts are public control flow even here.
fn public_branch(n: usize) -> usize {
    if n > 4 { 1 } else { 0 }
}

// CLEAN: lengths are public shape metadata; `.len()` sanitizes.
fn len_check(shares: &[R64]) -> usize {
    if shares.is_empty() { 0 } else { shares.len() }
}

// CLEAN: pragma'd — an Option return is inherently a public branch (an
// even ring element has no inverse).
// dash-analyze::allow(constant-time): invertibility is publicly observable
fn checked_inverse(x: R64) -> Option<R64> {
    if x.0 & 1 == 0 { None } else { Some(R64(x.0)) }
}

#[cfg(test)]
mod tests {
    // CLEAN: test code may branch on element values freely.
    fn assert_reduced(v: u64) -> bool {
        v < super::M
    }
}
