//! Seeded violations of constant time on share material. `scripts/check.sh`
//! compiles this file as a module of `dash-mpc`, and again of dash-core's
//! `secure` module (its `use crate::` line read as `use dash_mpc::`), where
//! the build must fail each line marked `// seeded: type` at that line,
//! once per `type` (once per word read):
//! outside `ring.rs` an element's word is private (E0616), and an element,
//! a slice or an option of them has no `==`, `<` or `/` (E0369) and no
//! constant of it can be a pattern. The stage's textual check of `ring.rs`,
//! the one file that sees the word, must reject each line marked
//! `// seeded: ring_text` when it reads this file, and nothing else: no
//! branch, comparison, `/` or `%` at all, as there is none in `ring.rs`.
//! Each type line is a statement, so the other passes compile the file
//! with those lines blanked: the CLEAN shapes build in both roots.

use crate::{dealer::ProjectionBatch, prg::Prg, ring::R64};

const M: u64 = (1 << 61) - 1;

// BAD 1: data-dependent branch in a reduction.
fn branchy_reduce(x: R64) {
    let _ = if x.0 >= M { x.0.wrapping_sub(M) } else { x.0 }; // seeded: type type type ring_text
}

// BAD 2: `%` is variable-time division in disguise.
fn secret_mod(x: R64, m: u64) {
    let _ = x.0 % m; // seeded: type ring_text
}

// BAD 3: secret-indexed table lookup (cache-timing leak). In ring.rs,
// where the word is in reach, `clippy::indexing_slicing` rejects it at
// both roots (the indexing fixture).
fn table_lookup(x: R64, tbl: &[u64; 8]) {
    let _ = tbl[(x.0 & 7) as usize]; // seeded: type
}

// BAD 4: comparison of share words.
fn compare_shares(a: R64, b: R64) {
    let _ = a.0 < b.0; // seeded: type type ring_text
}

// BAD 5: `match` scrutinee reads a share.
fn sign_match(x: R64) {
    let _ = match x.0 { 0 => 0, _ => 1 }; // seeded: type ring_text
}

// BAD 6: an element drawn from the PRG, then branched on.
fn local_leak(prg: &mut Prg) {
    let s = prg.next_ring();
    let _ = if s.0 > 10 { 1 } else { 0 }; // seeded: type ring_text
}

// BAD 7: plain division of a share word.
fn div_leak(x: R64) {
    let _ = x.0 / 4; // seeded: type ring_text
}

// BAD 8: the same branch inside the diverging block of a `let … else`.
fn let_else_leak(x: R64, t: &[u64]) -> u64 {
    let Some(v) = t.first() else {
        if x.0 > 3 { return 1; } // seeded: type ring_text
        return 0;
    };
    *v
}

// BAD 9: the same branch inside a fn nested in a body.
fn nested_leak(x: R64) {
    fn inner(y: R64) {
        let _ = if y.0 > 3 { 1 } else { 0 }; // seeded: type ring_text
    }
    inner(x)
}

// BAD 10: the same comparison in a macro statement behind an attribute.
fn attributed_assert_leak(x: R64) {
    #[allow(clippy::all, reason = "seeded")] debug_assert!(x.0 > 3); // seeded: type ring_text
}

// BAD 11: `+ x.0` after a cast is an operand, not a bound on the cast's
// type.
fn cast_sum_leak(n: u32, x: R64) {
    let _ = (n as u64 + x.0) % 3; // seeded: type ring_text
}

// BAD 12: a dealt batch is share material.
fn batch_leak(t: &ProjectionBatch) {
    let _ = match t.parts().0.iter().map(|w| w.0).max() { Some(0) => 0, _ => 1 }; // seeded: type ring_text
}

// BAD 13: elements compare without reading the word.
fn element_eq(a: R64, b: R64) {
    let _ = a == b; // seeded: type ring_text
}

// BAD 14: or order.
fn element_lt(a: R64, b: R64) {
    let _ = a < b; // seeded: type ring_text
}

// BAD 15: or compare as slices.
fn slice_eq(a: &[R64], b: &[R64]) {
    let _ = a == b; // seeded: type ring_text
}

// BAD 16: or as options.
fn option_eq(a: Option<R64>) {
    let _ = a == Some(R64::ZERO); // seeded: type ring_text
}

// BAD 17: or match against a constant element.
fn const_pattern(x: R64) {
    let _ = match x { R64::ZERO => 0, _ => 1 }; // seeded: type ring_text
}

// BAD 18: or divide.
fn element_div(a: R64, b: R64) {
    let _ = a / b; // seeded: type ring_text
}

// CLEAN: a batch's shape is public. ring.rs branches on nothing, so the
// textual check rejects even this branch there.
fn batch_shape(t: &ProjectionBatch) -> usize {
    if t.parts().0.iter().count() > 4 { t.parts().2.len() } else { 0 } // seeded: ring_text
}

// CLEAN: branch-free mask arithmetic on a public word.
fn branchless_reduce(v: u64) -> u64 {
    let folded = (v >> 61).wrapping_add(v & M);
    folded.wrapping_sub(M & ge_mask(folded, M))
}

fn ge_mask(a: u64, b: u64) -> u64 {
    let d = a.wrapping_sub(b);
    !((((!a) & b) | (((!a) | b) & d)) >> 63).wrapping_neg()
}

// CLEAN: `usize` counts are public control flow (not in ring.rs).
fn public_branch(n: usize) -> usize {
    if n > 4 { 1 } else { 0 } // seeded: ring_text
}

// CLEAN: lengths are public shape metadata (not in ring.rs).
fn len_check(shares: &[R64]) -> usize {
    if shares.is_empty() { 0 } else { shares.len() } // seeded: ring_text
}

// CLEAN: ring arithmetic is what an element offers.
fn masked(x: R64, pad: R64, prg: &mut Prg) -> R64 {
    R64::sum([x + pad, -pad, prg.next_ring() * R64::ONE - R64::from(7)])
}

#[cfg(test)]
mod tests {
    // CLEAN: test code may branch on public words freely.
    fn assert_reduced(v: u64) -> bool {
        v < super::M
    }
}
