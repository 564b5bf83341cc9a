//! Seeded violations for the disclosure-completeness lint.
//! Not compiled by cargo — parsed by the analyzer's integration tests.

/// VIOLATION: opens an aggregate without recording the disclosure.
fn leaky_gather(ctx: &mut PartyCtx) -> Vec<f64> {
    let tag = ctx.fresh_tag();
    all_gather_f64(ctx, tag, &[1.0]).unwrap_or_default()
}

/// VIOLATION: opens shares with no label and no record.
fn leaky_open(ctx: &mut PartyCtx, shares: &Secret<Vec<R64>>) {
    let _ = ctx.open_sum(shares, None);
}

/// OK: records the opening in the same function.
fn recorded_gather(ctx: &mut PartyCtx) -> Vec<f64> {
    ctx.audit().record_aggregate("totals", 1);
    let tag = ctx.fresh_tag();
    all_gather_f64(ctx, tag, &[1.0]).unwrap_or_default()
}

/// OK: the primitive records internally when handed a label.
fn labelled_open(ctx: &mut PartyCtx, shares: &Secret<Vec<R64>>) {
    let _ = ctx.open_sum(shares, Some("labelled products"));
}

/// OK: pragma documents the by-design unrecorded opening.
fn masked_difference_open(ctx: &mut PartyCtx, shares: &Secret<Vec<R64>>) {
    // dash-analyze::allow(disclosure-completeness): uniform one-time-pad
    // differences reveal nothing by construction.
    let _ = ctx.open_sum(shares, None);
}

/// OK: broadcast from inside the primitive layer itself.
fn broadcast_scalars(ctx: &mut PartyCtx, v: &[f64]) {
    send_everywhere(ctx, v);
}
