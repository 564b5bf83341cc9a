//! Property-based tests for the MPC substrate.

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use dash_mpc::dealer::{ProjectionBatch, TripleBatch, TrustedDealer};
use dash_mpc::fixed::FixedPointCodec;
use dash_mpc::net::{NetOptions, Network};
use dash_mpc::protocol::beaver::{open_mask, project};
use dash_mpc::protocol::masked::{masked_sum_ring, masked_sum_star_ring};
use dash_mpc::ring::R64;
use dash_mpc::tcp::{LinkSupervision, TcpConfig, TcpTransport};
use dash_mpc::transport::{LinkSnapshot, Transport};
use dash_mpc::{
    DisclosureLog, MpcError, OpenMode, Opening, PartyCtx, Secret, TraceCounter, TraceHandle,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const REDACTED: &str = "Secret { <redacted> }";

/// The secure-sum family: what is asserted about "a secure sum" is
/// asserted of the mesh and of the star.
type RingSum = fn(&mut PartyCtx, &[R64], &str) -> Result<Vec<u64>, MpcError>;
const SUMS: [RingSum; 2] = [masked_sum_ring, masked_sum_star_ring];

/// The Debug output must be the bare redaction marker — in particular it
/// must not contain the value's decimal rendering.
fn assert_redacted(d: &str, raw: &[u64]) {
    assert_eq!(d, REDACTED);
    for v in raw {
        // Single digits appear in the marker-free string trivially; only
        // check multi-digit renderings (collision odds for random u64
        // values are negligible).
        let s = v.to_string();
        if s.len() > 1 {
            assert!(!d.contains(&s), "debug output leaked {s}");
        }
    }
}

/// Every party's slice of one dealt batch, unwrapped (a full share set
/// is by definition no longer hiding).
fn dealt(dealer: &mut TrustedDealer, len: usize, count: usize) -> Vec<TripleBatch> {
    let log = DisclosureLog::new();
    let open = |b: Secret<TripleBatch>| b.open_via(&log, OpenMode::Pad);
    dealer
        .deal_inners(len, count)
        .into_iter()
        .map(open)
        .collect()
}

/// Element equality through the public surface, which has no `==` on
/// elements: the difference decodes to 0.0 exactly when it is the zero
/// word (a nonzero integer never converts to 0.0).
fn same(a: &[R64], b: &[R64]) -> bool {
    let codec = FixedPointCodec::default();
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| codec.decode_ring(x - y) == 0.0)
}

/// Deals the run's mask of length `mask` (with `Some`) or `count`
/// projections against the dealt one (with `None`), and reconstructs every
/// party's shares: `(a⃗, c, s)` per projection.
fn projected(
    dealer: &mut TrustedDealer,
    mask: Option<usize>,
    count: usize,
) -> Vec<(Vec<R64>, R64, R64)> {
    let log = DisclosureLog::new();
    let dealt = match mask {
        Some(len) => dealer.deal_mask(len),
        None => dealer.deal_projections(count),
    };
    let batches: Vec<ProjectionBatch> = dealt
        .into_iter()
        .map(|b| b.open_via(&log, OpenMode::Pad))
        .collect();
    let total = |region: fn(&ProjectionBatch) -> &[R64], i: usize| {
        R64::sum(batches.iter().map(|t| region(t)[i]))
    };
    let len = batches[0].dim();
    (0..batches[0].parts().1.len())
        .map(|j| {
            let a = (j * len..(j + 1) * len).map(|i| total(|t| t.parts().0, i));
            (
                a.collect(),
                total(|t| t.parts().1, j),
                total(|t| t.parts().2, j),
            )
        })
        .collect()
}

/// A seeded stream of uniform ring words (splitmix64).
fn ring_words(seed: u64, n: usize) -> Vec<R64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            R64::from(z ^ (z >> 31))
        })
        .collect()
}

/// The one-mask products at `p` parties: each holds uniform shares of a
/// K-vector `y` and of `count` K-vectors `x_j`; the opened shares of
/// `y·y` and of every `x_j·y`, `x_j·x_j` must be the exact ring products
/// of the summed operands.
fn projections_reconstruct_exactly(p: usize, k: usize, count: usize, seed: u64) {
    let width = k * (1 + count);
    let shares: Vec<Vec<R64>> = (0..p)
        .map(|id| ring_words(seed ^ id as u64, width))
        .collect();
    let total: Vec<R64> = (0..width)
        .map(|i| R64::sum(shares.iter().map(|s| s[i])))
        .collect();
    let (y, xs) = total.split_at(k);
    let mut want = vec![R64::dot(y, y)];
    for j in 0..count {
        let x = &xs[j * k..(j + 1) * k];
        want.extend([R64::dot(x, y), R64::dot(x, x)]);
    }
    let mut dealer = TrustedDealer::new(p, seed).unwrap();
    let mut slots: Vec<_> = dealer.deal_mask(k).into_iter().map(|m| vec![m]).collect();
    for (slot, batch) in slots.iter_mut().zip(dealer.deal_projections(count)) {
        slot.push(batch);
    }
    let slots: Vec<_> = slots
        .into_iter()
        .map(|s| std::sync::Mutex::new(Some(s)))
        .collect();
    let (results, _, audit) =
        Network::run_parties_detailed_with(p, seed, &NetOptions::default(), |ctx| {
            let mine = slots[ctx.id()].lock().unwrap().take().unwrap();
            let (y, x) = shares[ctx.id()].split_at(k);
            let (y, yy) = open_mask(ctx, &Secret::new(y.to_vec()), &mine[0])?;
            let z = project(ctx, &Secret::new(x.to_vec()), &y, &mine[1])?;
            let mut opened = ctx.open_sum(&yy, Opening::Pad)?;
            opened.extend(ctx.open_sum(&z, Opening::Pad)?);
            Ok::<_, MpcError>(opened)
        })
        .unwrap();
    assert!(audit.entries().is_empty());
    for r in results {
        assert!(
            same(&r.unwrap().unwrap(), &want),
            "p={p} k={k} count={count}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every shape the scan meets at small scale: P ∈ {2, 3, 4},
    /// K ∈ {0, 1, 3, 16}, count ∈ {0, 1, 5}, on fresh uniform operands.
    #[test]
    fn projection_shares_sum_to_the_exact_ring_products(seed in any::<u64>()) {
        for p in [2, 3, 4] {
            for k in [0, 1, 3, 16] {
                for count in [0, 1, 5] {
                    projections_reconstruct_exactly(p, k, count, seed);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dealt_projections_reconstruct_to_their_relations(
        n in 1usize..8,
        len in 0usize..6,
        count in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut dealer = TrustedDealer::new(n, seed).unwrap();
        let mask = projected(&mut dealer, Some(len), 1);
        let [(b, bc, bb)] = mask.as_slice() else {
            panic!("the mask is a batch of one");
        };
        prop_assert!(same(&[*bc, *bb], &[R64::dot(b, b); 2]));
        for (a, c, s) in projected(&mut dealer, None, count) {
            prop_assert!(same(&[c, s], &[R64::dot(&a, b), R64::dot(&a, &a)]));
        }
    }

    /// Consecutive calls continue one stream: however a run's projections
    /// are cut into batches, every party holds the same words.
    #[test]
    fn cutting_the_projections_into_batches_never_changes_a_word(
        n in 1usize..6,
        len in 0usize..5,
        first in 0usize..6,
        second in 0usize..6,
        seed in any::<u64>(),
    ) {
        let shares = |dealer: &mut TrustedDealer, count| {
            let log = DisclosureLog::new();
            let batches = dealer.deal_projections(count).into_iter();
            batches.map(|b| b.open_via(&log, OpenMode::Pad)).collect::<Vec<_>>()
        };
        let mut whole = TrustedDealer::new(n, seed).unwrap();
        let mut cut = TrustedDealer::new(n, seed).unwrap();
        whole.deal_mask(len);
        cut.deal_mask(len);
        let all = shares(&mut whole, first + second);
        let (head, tail) = (shares(&mut cut, first), shares(&mut cut, second));
        for ((all, head), tail) in all.iter().zip(&head).zip(&tail) {
            let (wa, wc, ws) = all.parts();
            let ((ha, hc, hs), (ta, tc, ts)) = (head.parts(), tail.parts());
            prop_assert!(same(wa, &[ha, ta].concat()));
            prop_assert!(same(wc, &[hc, tc].concat()));
            prop_assert!(same(ws, &[hs, ts].concat()));
        }
    }

    #[test]
    fn fixed_point_roundtrip_within_half_ulp(
        x in -1.0e6f64..1.0e6,
        frac in 8u32..48,
    ) {
        let c = FixedPointCodec::new(frac).unwrap();
        if x.abs() <= c.max_abs_ring() {
            let dec = c.decode_ring_vec(&c.encode_ring_vec(&[x]).unwrap())[0];
            prop_assert!((dec - x).abs() <= 0.5 / c.scale() + 1e-12 * x.abs());
        }
    }

    /// Boundary pin for `to_scaled_i64`'s inclusive range check: for every
    /// legal `frac_bits`, `x.abs() == max_abs` encodes without error and
    /// round-trips *exactly* (the boundary is a power of two, so scaling
    /// is integer-exact and rounding is the identity). Together with the
    /// just-above-rejection unit tests this proves the inclusive check
    /// correct — rounding cannot push an accepted value past the budget.
    #[test]
    fn fixed_point_boundary_roundtrips_exactly(frac in 1u32..53) {
        let c = FixedPointCodec::new(frac).unwrap();
        for x in [c.max_abs_ring(), -c.max_abs_ring()] {
            prop_assert_eq!(c.decode_ring_vec(&c.encode_ring_vec(&[x]).unwrap()), [x], "frac={}", frac);
        }
    }

    #[test]
    fn fixed_point_encoding_additive(
        xs in proptest::collection::vec(-1000.0f64..1000.0, 1..20),
    ) {
        let c = FixedPointCodec::new(32).unwrap();
        let enc = c.encode_ring_vec(&xs).unwrap();
        let sum_enc = R64::sum(&enc);
        let sum_clear: f64 = xs.iter().sum();
        let tol = xs.len() as f64 / c.scale();
        prop_assert!((c.decode_ring(sum_enc) - sum_clear).abs() <= tol);
    }

    /// The secure-sum property against the independent oracle, the plain
    /// wrapping sum: mesh and star, P = 1..=5 (P = 1 is the audited local
    /// open), any length including the empty vector, every party agreeing
    /// exactly.
    #[test]
    fn secure_sum_equals_plain_sum(
        flat in proptest::collection::vec(any::<u64>(), 20),
        n in 1usize..=5,
        len in 0usize..=4,
        seed in any::<u64>(),
    ) {
        let rows: Vec<&[u64]> = flat.chunks(4).take(n).map(|row| &row[..len]).collect();
        let expect: Vec<u64> = (0..len)
            .map(|k| rows.iter().fold(0u64, |acc, row| acc.wrapping_add(row[k])))
            .collect();
        for sum in SUMS {
            let (slots, _, _) =
                Network::run_parties_detailed_with(n, seed, &NetOptions::default(), |ctx| {
                    let mine: Vec<R64> = rows[ctx.id()].iter().map(|&v| R64::from(v)).collect();
                    sum(ctx, &mine, "prop")
                })
                .unwrap();
            for slot in slots {
                prop_assert_eq!(slot.unwrap().unwrap(), expect.clone());
            }
        }
    }

    /// Tentpole invariant, property form: `{:?}` prints the redaction
    /// marker — and nothing value-derived — for **every** `Secret<T>`
    /// instantiation the workspace uses (the element, its vector, a mask
    /// word, the triple batch — whose own `Debug` prints its shape and
    /// nothing else).
    #[test]
    fn debug_redacts_every_secret_instantiation(
        r in any::<u64>(),
        w in any::<u64>(),
        rv in proptest::collection::vec(any::<u64>(), 1..6),
        (len, count, seed) in (0usize..5, 0usize..4, any::<u64>()),
    ) {
        assert_redacted(&format!("{:?}", Secret::new(R64::from(r))), &[r]);
        assert_redacted(&format!("{:?}", Secret::new(w)), &[w]);
        let rv_secret = Secret::new(rv.iter().map(|&v| R64::from(v)).collect::<Vec<_>>());
        assert_redacted(&format!("{rv_secret:?}"), &rv);
        let batch = dealt(&mut TrustedDealer::new(2, seed).unwrap(), len, count).remove(0);
        prop_assert_eq!(
            format!("{batch:?}"),
            format!("TripleBatch {{ len: {len}, count: {count}, <shares redacted> }}")
        );
        // The words are crate-private; equal to the bare marker, the
        // output holds none of them.
        assert_redacted(&format!("{:?}", Secret::new(batch)), &[]);
    }
}

/// One endpoint of a supervised loopback pair plus its stats handle.
type SupervisedEnd = (TcpTransport, Arc<dash_mpc::net::NetworkStats>);

/// Builds one supervised loopback pair: party 0 (the survivor) and
/// party 1 (the crasher), each with its own stats handle.
fn supervised_pair(run_id: u64) -> (SupervisedEnd, SupervisedEnd, Vec<std::net::SocketAddr>) {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let addrs = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let cfg = TcpConfig {
        run_id,
        supervision: Some(LinkSupervision::default()),
        ..TcpConfig::default()
    };
    let (a, b) = std::thread::scope(|scope| {
        let (a0, c0) = (addrs.clone(), cfg);
        let h0 = scope.spawn(move || {
            let stats = Arc::new(dash_mpc::net::NetworkStats::with_trace(
                2,
                TraceHandle::disabled(),
            ));
            let t = TcpTransport::connect(0, l0, &a0, c0, Arc::clone(&stats)).unwrap();
            (t, stats)
        });
        let (a1, c1) = (addrs.clone(), cfg);
        let h1 = scope.spawn(move || {
            let stats = Arc::new(dash_mpc::net::NetworkStats::with_trace(
                2,
                TraceHandle::disabled(),
            ));
            let t = TcpTransport::connect(1, l1, &a1, c1, Arc::clone(&stats)).unwrap();
            (t, stats)
        });
        (h0.join().unwrap(), h1.join().unwrap())
    });
    (a, b, addrs)
}

proptest! {
    // Real sockets plus a crash/resume cycle per case: keep it modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reconnect-dedup property (satellite of the crash-resilience
    /// work): a party that crashes and resumes from a checkpointed send
    /// cursor `s` re-sends the frame range `[s, n_sent)` the survivor
    /// already delivered. For **every** overlap shape — none
    /// (`s == n_sent`), partial (`0 < s < n_sent`), full (`s == 0`) —
    /// the survivor's reorder buffer must drop the replayed duplicates
    /// (the originally delivered payloads win), deliver the genuinely
    /// new frames exactly once, and keep per-process byte accounting
    /// conserved: every distinct frame is counted once at its sender,
    /// while duplicates, replay installs and heartbeats count nowhere.
    #[test]
    fn resumed_replay_ranges_dedup_for_every_overlap_shape(
        n_sent in 1u64..6,
        resend_sel in any::<u64>(),
        n_fresh in 0u64..4,
        consume_late in any::<bool>(),
        run_id in any::<u64>(),
    ) {
        const ORIG: u64 = 0xA5A5_0001;
        const RESENT: u64 = 0x5A5A_0002;
        let s = resend_sel % (n_sent + 1); // checkpointed send cursor
        let n_total = n_sent + n_fresh;
        let tag = |j: u64| 1000 + j as u32;

        let ((a, a_stats), (b, b_stats), addrs) = supervised_pair(run_id);
        for j in 0..n_sent {
            b.send_words(0, tag(j), &[j, ORIG]).unwrap();
        }
        if !consume_late {
            for j in 0..n_sent {
                prop_assert_eq!(a.recv_words(1, tag(j)).unwrap(), vec![j, ORIG]);
            }
        }

        // Crash B; restart it from a checkpoint whose send cursor is s
        // frames in, so it re-sends [s, n_sent) before any new traffic
        // — exactly what a block-boundary resume does.
        drop(b);
        std::thread::sleep(Duration::from_millis(50));
        let listener = TcpListener::bind(addrs[1]).unwrap();
        let b2_stats = Arc::new(dash_mpc::net::NetworkStats::with_trace(
            2,
            TraceHandle::disabled(),
        ));
        let b2 = TcpTransport::connect_resume(
            1,
            listener,
            &addrs,
            TcpConfig {
                run_id,
                supervision: Some(LinkSupervision::default()),
                ..TcpConfig::default()
            },
            Arc::clone(&b2_stats),
            Some(LinkSnapshot {
                send_next: vec![s, 0],
                recv_next: vec![0, 0],
                replay: vec![Vec::new(), Vec::new()],
            }),
        )
        .unwrap();
        for j in s..n_total {
            b2.send_words(0, tag(j), &[j, RESENT]).unwrap();
        }
        // A sentinel after the batch proves the link survived the whole
        // replay range in order.
        b2.send_words(0, 9999, &[7, 7]).unwrap();

        if consume_late {
            for j in 0..n_sent {
                prop_assert_eq!(a.recv_words(1, tag(j)).unwrap(), vec![j, ORIG]);
            }
        }
        for j in n_sent..n_total {
            prop_assert_eq!(a.recv_words(1, tag(j)).unwrap(), vec![j, RESENT]);
        }
        prop_assert_eq!(a.recv_words(1, 9999).unwrap(), vec![7, 7]);
        // The replayed overlap must have been *dropped*, not queued: a
        // second receive on a replayed tag finds nothing.
        if s < n_sent {
            let err = a
                .recv_words_timeout(1, tag(s), Duration::from_millis(60))
                .unwrap_err();
            prop_assert!(
                matches!(err, MpcError::Timeout { .. }),
                "replayed duplicate was delivered twice: {err:?}"
            );
        }

        // Byte accounting conserved per process: each process counts
        // exactly the frames it put on the wire itself, once. All
        // payloads are two words, so per-frame cost divides evenly.
        prop_assert_eq!(a_stats.total_bytes(), 0);
        prop_assert_eq!(b_stats.total_messages(), n_sent);
        prop_assert_eq!(b2_stats.total_messages(), n_total - s + 1);
        let unit = b_stats.total_bytes() / n_sent;
        prop_assert_eq!(b_stats.total_bytes(), unit * n_sent);
        prop_assert_eq!(b2_stats.total_bytes(), unit * (n_total - s + 1));
        prop_assert_eq!(b2_stats.count_by(1, TraceCounter::Resumes), 1);
        drop(a);
    }
}

proptest! {
    // Full network runs per case: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Audited-open soundness: the scalar totals the [`DisclosureLog`]
    /// *claims* (recorded by `open_via` at the moment of opening) equal
    /// the opened-scalar count the trace *observed* — replica openings on
    /// the other parties must never double-count a disclosure.
    #[test]
    fn open_via_totals_match_trace(
        vals in proptest::collection::vec(any::<u64>(), 2..5),
        len in 1usize..6,
        seed in any::<u64>(),
    ) {
        let n = vals.len();
        let trace = TraceHandle::enabled(n);
        let opts = NetOptions {
            trace: trace.clone(),
            ..NetOptions::default()
        };
        let (results, _, audit) = Network::run_parties_detailed_with(n, seed, &opts, |ctx| {
            let mine = vec![R64::from(vals[ctx.id()]); len];
            // Two distinct audited openings, one per secure-sum shape.
            let a = masked_sum_ring(ctx, &mine, "mesh round")?;
            let b = masked_sum_star_ring(ctx, &mine, "star round")?;
            Ok::<_, dash_mpc::MpcError>((a, b))
        }).unwrap();
        let errs: Vec<String> = results
            .iter()
            .filter_map(|r| match r {
                Err(e) => Some(format!("outer: {e:?}")),
                Ok(Err(e)) => Some(format!("inner: {e:?}")),
                Ok(Ok(_)) => None,
            })
            .collect();
        prop_assert!(
            errs.is_empty(),
            "party errors: {errs:?} (n={n}, len={len}, seed={seed})"
        );
        for r in results {
            let (a, b) = r.unwrap().unwrap();
            let expect = vals.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
            prop_assert!(a.iter().all(|&x| x == expect));
            prop_assert!(b.iter().all(|&x| x == expect));
        }
        let claimed: u64 = audit.entries().iter().map(|d| d.scalars as u64).sum();
        let observed = trace.counter_total(TraceCounter::OpenedScalars);
        prop_assert!(claimed > 0, "both rounds disclose aggregates");
        prop_assert_eq!(
            claimed, observed,
            "disclosure log claims {} opened scalars, trace observed {}",
            claimed, observed
        );
        // Exactly one aggregate entry per labelled opening: replicas must
        // not append extra log entries.
        prop_assert_eq!(audit.entries().len(), 2);
    }
}
