//! Fixture: secret material escaping through a call chain.
//!
//! `draw_noise` returns `Secret<Vec<R64>>`; `collect_summary` hides the
//! value inside a struct with an innocuous declared type; `report`
//! finally Debug-formats the struct. No single expression mixes a
//! secret-named identifier with a formatter, so the token-level
//! `secret-taint` lint cannot see it — only the call-graph closure can.

pub struct Summary {
    pub label: &'static str,
    pub payload: Secret<Vec<R64>>,
}

/// Seed: declared return type mentions `Secret`.
pub fn draw_noise(prg: &mut PartyPrg) -> Secret<Vec<R64>> {
    Secret::new(prg.ring_vec(8))
}

/// Propagation: returns a value, calls a tainted fn, never opens.
pub fn collect_summary(prg: &mut PartyPrg) -> Summary {
    Summary {
        label: "round",
        payload: draw_noise(prg),
    }
}

/// Sink: formats a local bound (transitively) from a secret-returning
/// call. VIOLATION — cross-function-taint.
pub fn report(prg: &mut PartyPrg) -> String {
    let stats = collect_summary(prg);
    format!("{:?}", stats)
}

/// Sink via inline capture of a moved local. VIOLATION —
/// cross-function-taint.
pub fn report_inline(prg: &mut PartyPrg) {
    let stats = collect_summary(prg);
    let renamed = stats;
    println!("{renamed:?}");
}

/// Clean: the chain passes an audited open before formatting, so the
/// formatted value is public by construction.
pub fn report_opened(ctx: &mut PartyCtx, prg: &mut PartyPrg) -> Result<String, MpcError> {
    let shares = draw_noise(prg);
    let total = ctx.open_local(shares, Some("noise-total"));
    Ok(format!("total = {:?}", total))
}

/// Clean: formatting a count is fine — the local is not bound from a
/// tainted call.
pub fn report_count(prg: &mut PartyPrg) -> String {
    let n = prg.rounds();
    format!("{n} rounds")
}

/// Sink inside a fn nested in a body. VIOLATION — cross-function-taint.
pub fn report_nested(prg: &mut PartyPrg) -> String {
    fn render(prg: &mut PartyPrg) -> String {
        let stats = collect_summary(prg);
        format!("{:?}", stats)
    }
    render(prg)
}

/// Syntax a parser can mistake for the end of the file: a struct-like
/// enum variant, and a `<<` in a `const` (no generic list opens there).
pub enum Phase {
    Idle,
    Round { index: u32 },
}

const ROUND_LIMIT: u64 = 1 << 3;

/// Sink placed after them. VIOLATION — cross-function-taint.
pub fn report_late(prg: &mut PartyPrg) -> String {
    let stats = collect_summary(prg);
    format!("{:?} of {ROUND_LIMIT}", stats)
}

/// Sink behind an attribute — the usual shape of a debug print left in.
/// VIOLATION — cross-function-taint.
pub fn report_debug(prg: &mut PartyPrg) {
    let stats = collect_summary(prg);
    #[cfg(debug_assertions)]
    println!("{:?}", stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_format_freely() {
        let mut prg = PartyPrg::seeded(7);
        let stats = collect_summary(&mut prg);
        println!("{stats:?}");
    }
}
