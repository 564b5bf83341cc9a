//! What the types state about printing. This integration test links the
//! lib built without `cfg(test)`, as every other crate does: there no
//! secret type formats a word with `{:?}` or `{:#?}`, and a `Debug`
//! derived on a struct of elements inherits the redaction.

// Test code asserts freely; the panic-free discipline applies to the
// protocol code proper.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use dash_mpc::dealer::TrustedDealer;
use dash_mpc::prg::Prg;
use dash_mpc::{DisclosureLog, OpenMode, Secret, R64};
use std::fmt::Debug;

/// Words whose every rendering is long: 19-20 decimal digits each.
const WORDS: [u64; 3] = [0xDEAD_BEEF_1234_5678, u64::MAX, 0x0123_4567_89AB_CDEF];

/// A triple type that derives `Debug`, as a careless one would.
#[derive(Debug)]
#[allow(dead_code, reason = "only ever formatted")]
struct LeakyTriple {
    a: R64,
    b: R64,
    c: R64,
}

/// Both `Debug` renderings of `value`.
fn renderings(value: &impl Debug) -> [String; 2] {
    [format!("{value:?}"), format!("{value:#?}")]
}

/// `value` formats no word: neither a known word's decimal or hex
/// rendering, nor any run of five or more digits (a uniform word has
/// one with probability 1 − 10⁻¹⁴).
fn assert_no_word(value: &impl Debug, known: &[u64]) {
    for text in renderings(value) {
        for w in known {
            for r in [w.to_string(), format!("{w:x}"), format!("{w:X}")] {
                assert!(!text.contains(&r), "{text:?} holds {r}");
            }
        }
        let longest = text
            .split(|c: char| !c.is_ascii_digit())
            .map(str::len)
            .max()
            .unwrap_or(0);
        assert!(longest < 5, "{text:?} holds a run of {longest} digits");
        assert!(text.contains("redacted"), "{text:?} is not the redaction");
    }
}

#[test]
fn no_secret_type_formats_a_word() {
    let elems: Vec<R64> = WORDS.iter().map(|&w| R64::from(w)).collect();
    for e in &elems {
        assert_no_word(e, &WORDS);
    }
    assert_no_word(&elems, &WORDS);
    assert_no_word(&Secret::new(elems.clone()), &WORDS);
    let leaky = LeakyTriple {
        a: elems[0],
        b: elems[1],
        c: elems[2],
    };
    assert_no_word(&leaky, &WORDS);

    // A whole share set opens by definition, so the batch is in hand.
    let log = DisclosureLog::new();
    let mut dealer = TrustedDealer::new(2, 7).unwrap();
    for batch in dealer.deal_inners(3, 2) {
        let batch = batch.open_via(&log, OpenMode::Pad);
        assert_no_word(&batch, &[]);
    }
    dealer.deal_mask(3);
    for batch in dealer.deal_projections(2) {
        let batch = batch.open_via(&log, OpenMode::Pad);
        assert_no_word(&batch, &[]);
    }

    let mut prg = Prg::from_seed(11);
    prg.next_u64();
    assert_no_word(&prg, &prg.state());
}
