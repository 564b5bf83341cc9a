//! f64 framing over the MPC network.
//!
//! The public (non-secret) exchanges of the protocol — R factors, opened
//! summands in `Public` mode — ship raw IEEE-754 doubles bit-cast into the
//! network's u64 words. The two that open values to every party,
//! [`all_gather_f64`] and [`broadcast_f64`], take what they disclose and
//! record it themselves.

use dash_mpc::{MpcError, PartyCtx};

/// What an opening f64 exchange discloses, recorded in the disclosure log
/// by the exchange itself before its first send.
pub(crate) enum Discloses {
    /// `scalars` values derived from this party's own data, logged under
    /// its id.
    Party { label: String, scalars: usize },
    /// An all-party aggregate of `scalars` values, logged by the party
    /// that sends it.
    Aggregate { label: &'static str, scalars: usize },
    /// A `Public`-mode block round: its summands are part of the whole-run
    /// vector that `aggregate_y` logs once (`1 + 2m + k + km` scalars), so
    /// logging them again would count the same opening twice.
    PublicBlockSummands,
}

impl Discloses {
    fn record(self, ctx: &PartyCtx) {
        match self {
            Discloses::Party { label, scalars } => {
                ctx.audit().record_party(ctx.id(), label, scalars)
            }
            Discloses::Aggregate { label, scalars } => ctx.audit().record_aggregate(label, scalars),
            Discloses::PublicBlockSummands => {}
        }
    }
}

/// Sends a slice of doubles to one peer.
pub(crate) fn send_f64(ctx: &PartyCtx, to: usize, tag: u32, vals: &[f64]) -> Result<(), MpcError> {
    let words: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
    // The ctx helpers (rather than the raw endpoint) apply the configured
    // receive deadline.
    ctx.send_words(to, tag, &words)
}

/// Receives a slice of doubles from one peer.
pub(crate) fn recv_f64(ctx: &PartyCtx, from: usize, tag: u32) -> Result<Vec<f64>, MpcError> {
    Ok(ctx
        .recv_words(from, tag)?
        .into_iter()
        .map(f64::from_bits)
        .collect())
}

/// Broadcasts doubles to every other party, recording `discloses` first.
pub(crate) fn broadcast_f64(
    ctx: &PartyCtx,
    tag: u32,
    vals: &[f64],
    discloses: Discloses,
) -> Result<(), MpcError> {
    discloses.record(ctx);
    for j in 0..ctx.n_parties() {
        if j != ctx.id() {
            send_f64(ctx, j, tag, vals)?;
        }
    }
    Ok(())
}

/// All-gather: exchanges doubles with every other party and returns
/// everyone's vectors in party order (own contribution included at its
/// index). Each party records its own `discloses` first.
///
/// Uses a rank-rotated schedule: at step `d`, party `me` sends to
/// `(me + d) % n` and receives from `(me + n − d) % n`. Every step pairs
/// each party with a *different* peer, so no single slow party serializes
/// the whole gather the way the old fixed `0..n` receive order did
/// (everyone used to drain party 0 first, then 1, …, turning one slow
/// link into a convoy). Same messages, bytes, and tag as before — only
/// the completion order changed.
pub(crate) fn all_gather_f64(
    ctx: &PartyCtx,
    tag: u32,
    own: &[f64],
    discloses: Discloses,
) -> Result<Vec<Vec<f64>>, MpcError> {
    discloses.record(ctx);
    let n = ctx.n_parties();
    let me = ctx.id();
    let mut out = vec![Vec::new(); n];
    *out.get_mut(me).ok_or(MpcError::NoSuchParty {
        id: me,
        n_parties: n,
    })? = own.to_vec();
    for d in 1..n {
        let to = (me + d) % n;
        let from = (me + n - d) % n;
        send_f64(ctx, to, tag, own)?;
        let received = recv_f64(ctx, from, tag)?;
        *out.get_mut(from).ok_or(MpcError::NoSuchParty {
            id: from,
            n_parties: n,
        })? = received;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure::run_parties_ok;
    use dash_mpc::net::{NetOptions, Network};

    fn own_values(label: &str) -> Discloses {
        Discloses::Party {
            label: label.to_string(),
            scalars: 1,
        }
    }

    #[test]
    fn opening_exchanges_record_what_they_disclose() {
        let (slots, _, audit) =
            Network::run_parties_detailed_with(3, 1, &NetOptions::default(), |ctx| {
                let tag = ctx.fresh_tag();
                all_gather_f64(ctx, tag, &[1.0], own_values("gather")).map(drop)?;
                let tag = ctx.fresh_tag();
                all_gather_f64(ctx, tag, &[2.0], Discloses::PublicBlockSummands).map(drop)?;
                let tag = ctx.fresh_tag();
                if ctx.id() == 0 {
                    let root = Discloses::Aggregate {
                        label: "root",
                        scalars: 2,
                    };
                    broadcast_f64(ctx, tag, &[3.0, 4.0], root)
                } else {
                    recv_f64(ctx, 0, tag).map(drop)
                }
            })
            .unwrap();
        assert!(slots.iter().all(|s| matches!(s, Ok(Ok(())))), "{slots:?}");
        let mut log: Vec<(Option<usize>, String, usize)> = audit
            .entries()
            .into_iter()
            .map(|d| (d.source_party, d.label, d.scalars))
            .collect();
        log.sort();
        let want = vec![
            (None, "root".to_string(), 2),
            (Some(0), "gather".to_string(), 1),
            (Some(1), "gather".to_string(), 1),
            (Some(2), "gather".to_string(), 1),
        ];
        assert_eq!(log, want);
    }

    #[test]
    fn f64_roundtrip_preserves_bits() {
        let specials = [0.0, -0.0, 1.5, -2.25e-300, f64::INFINITY, f64::MIN_POSITIVE];
        let results = run_parties_ok(2, 1, |ctx| {
            let tag = ctx.fresh_tag();
            if ctx.id() == 0 {
                send_f64(ctx, 1, tag, &specials).unwrap();
                Vec::new()
            } else {
                recv_f64(ctx, 0, tag).unwrap()
            }
        });
        for (a, b) in specials.iter().zip(&results[1]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn all_gather_ordering() {
        let results = run_parties_ok(3, 1, |ctx| {
            let tag = ctx.fresh_tag();
            all_gather_f64(ctx, tag, &[ctx.id() as f64 * 10.0], own_values("gather")).unwrap()
        });
        for r in results {
            assert_eq!(r, vec![vec![0.0], vec![10.0], vec![20.0]]);
        }
    }

    #[test]
    fn all_gather_survives_injected_delays() {
        // Regression for the fixed-order schedule: with every party
        // arriving late by its own seeded amount, each must still
        // assemble the party-ordered vector, and repeated gathers must
        // not cross-talk (the rotated schedule changes completion order,
        // not correctness).
        use std::time::Duration;

        let results = run_parties_ok(4, 2, |ctx| {
            let mut rounds = Vec::new();
            for round in 0..3 {
                let delay_us = ctx.rng_mut().next_u64() % 3_000;
                std::thread::sleep(Duration::from_micros(delay_us));
                let tag = ctx.fresh_tag();
                let own = [ctx.id() as f64 + 100.0 * round as f64];
                rounds.push(all_gather_f64(ctx, tag, &own, own_values("round")).unwrap());
            }
            rounds
        });
        for rounds in results {
            for (round, gathered) in rounds.into_iter().enumerate() {
                let want: Vec<Vec<f64>> = (0..4)
                    .map(|p| vec![p as f64 + 100.0 * round as f64])
                    .collect();
                assert_eq!(gathered, want, "round {round}");
            }
        }
    }
}
