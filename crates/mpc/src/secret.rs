//! Type-level secrecy: the [`Secret<T>`] newtype.
//!
//! The paper's security argument is that *only* the O(M) aggregated
//! statistics ever leave a party; shares, Beaver triples, PRG masks and
//! the secret-shared K-vector summands must stay local. The lints in
//! `dash-analyze` enforce that discipline heuristically; `Secret<T>`
//! enforces it structurally:
//!
//! - the wrapped value is private — no `Display`, no serialization, and a
//!   `Debug` impl that prints only a redaction marker;
//! - arithmetic happens through explicit combinators ([`Secret::map`],
//!   the ring-vector `add_assign_secret`), whose results stay wrapped;
//! - the **only** way to extract the inner value is
//!   [`Secret::open_via`], which takes the shared [`DisclosureLog`] and an
//!   [`OpenMode`] and records the opened scalar count *derived from the
//!   value itself* at the moment of opening — so the log's claimed sizes
//!   equal the actually opened lengths by construction.
//!
//! Within `dash-mpc` the protocol layer uses `pub(crate)` accessors to
//! serialize shares onto the wire; outside the crate (the scan pipeline in
//! `dash-core`, tests, benches) the type system forces every opening
//! through the audited path.

use crate::audit::DisclosureLog;
use crate::error::MpcError;
use crate::field::F61;
use crate::ring::{add_assign_vec, sub_assign_vec, R64};
use std::fmt;

/// Secret protocol material (shares, triples, masks). See the module docs
/// for the guarantees.
///
/// The inner value is inaccessible outside the crate:
///
/// ```compile_fail
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(R64(42));
/// let inner = s.0; // private field
/// ```
///
/// There is no `Display` (and no serialization), so a secret cannot be
/// stringified even accidentally:
///
/// ```compile_fail
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(R64(42));
/// let msg = format!("{}", s); // no Display impl
/// ```
///
/// The crate-internal accessors do not leak out either:
///
/// ```compile_fail
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(R64(42));
/// let r = s.expose(); // pub(crate) only
/// ```
///
/// `Debug` exists (containers derive it) but prints only a redaction
/// marker:
///
/// ```
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(vec![R64(0xDEAD_BEEF)]);
/// assert_eq!(format!("{s:?}"), "Secret { <redacted> }");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Secret<T>(T);

impl<T> fmt::Debug for Secret<T> {
    // Deliberately opaque: a stray `{:?}` on any container holding secret
    // material must not print the values, even in panic messages.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Secret { <redacted> }")
    }
}

impl<T> Secret<T> {
    /// Wraps a value. Wrapping is always safe — only unwrapping is
    /// guarded.
    pub fn new(value: T) -> Self {
        Secret(value)
    }

    /// Applies a pure function to the inner value; the result stays
    /// wrapped.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Secret<U> {
        Secret(f(self.0))
    }

    /// Crate-internal read access for the protocol layer (wire
    /// serialization, share arithmetic). Not visible outside `dash-mpc`:
    /// external code must go through [`Secret::open_via`].
    pub(crate) fn expose(&self) -> &T {
        &self.0
    }
}

/// How many scalar values a piece of secret material contains — the unit
/// the [`DisclosureLog`] accounts in. Lengths and counts are public
/// metadata (the protocols exchange them in the clear anyway).
pub trait ScalarCount {
    fn scalar_count(&self) -> usize;
}

impl ScalarCount for R64 {
    fn scalar_count(&self) -> usize {
        1
    }
}

impl ScalarCount for u64 {
    // A bare mask word (from the constant-time combinators) counts as one
    // scalar if a caller ever opens it.
    fn scalar_count(&self) -> usize {
        1
    }
}

impl ScalarCount for F61 {
    fn scalar_count(&self) -> usize {
        1
    }
}

impl ScalarCount for Vec<R64> {
    fn scalar_count(&self) -> usize {
        self.len()
    }
}

impl ScalarCount for Vec<F61> {
    fn scalar_count(&self) -> usize {
        self.len()
    }
}

/// How an opening is attributed in the [`DisclosureLog`].
#[derive(Debug, Clone, Copy)]
pub enum OpenMode<'a> {
    /// An all-party aggregate (the only kind the secure modes produce);
    /// recorded once by the opening party.
    Aggregate(&'a str),
    /// A quantity derived from one party's private data.
    Party(usize, &'a str),
    /// The same opening every other party performs in lockstep, already
    /// recorded by the designated leader — opening a replica records
    /// nothing, otherwise the shared log would count each value n times.
    Replica,
    /// A uniform one-time-pad difference (`x − a` against a dealer mask):
    /// independent of the inputs by construction, so by design not a
    /// disclosure.
    Pad,
}

impl<T: ScalarCount> Secret<T> {
    /// Number of scalars inside (public metadata).
    pub fn scalar_count(&self) -> usize {
        self.0.scalar_count()
    }

    /// The **only** escape hatch: consumes the secret, records the opened
    /// scalar count in `log` per `mode`, and returns the inner value. The
    /// recorded count is computed from the value itself, so the log's
    /// claimed disclosure sizes cannot drift from what actually opened.
    pub fn open_via(self, log: &DisclosureLog, mode: OpenMode<'_>) -> T {
        match mode {
            OpenMode::Aggregate(label) => log.record_aggregate(label, self.0.scalar_count()),
            OpenMode::Party(party, label) => log.record_party(party, label, self.0.scalar_count()),
            OpenMode::Replica | OpenMode::Pad => {}
        }
        self.0
    }
}

impl Secret<Vec<R64>> {
    /// Element-wise share accumulation; errors on length mismatch.
    pub fn add_assign_secret(&mut self, other: &Secret<Vec<R64>>) -> Result<(), MpcError> {
        if self.0.len() != other.0.len() {
            return Err(MpcError::LengthMismatch {
                what: "Secret::add_assign_secret (ring)",
                expected: self.0.len(),
                got: other.0.len(),
            });
        }
        add_assign_vec(&mut self.0, &other.0);
        Ok(())
    }

    /// Applies this secret as a one-time pad onto a plain buffer (adding
    /// when `add`, subtracting otherwise). The padded buffer is safe to
    /// publish — pads cancel across the pair — while the pad itself stays
    /// wrapped. Errors on length mismatch.
    pub fn pad_into(&self, target: &mut [R64], add: bool) -> Result<(), MpcError> {
        if self.0.len() != target.len() {
            return Err(MpcError::LengthMismatch {
                what: "Secret::pad_into",
                expected: target.len(),
                got: self.0.len(),
            });
        }
        if add {
            add_assign_vec(target, &self.0);
        } else {
            sub_assign_vec(target, &self.0);
        }
        Ok(())
    }
}

impl Secret<F61> {
    /// Constant-time equality of two secret field elements. The result is
    /// an all-ones/zero *mask* and stays wrapped: whether two shares are
    /// equal is itself secret.
    pub fn ct_eq(&self, other: &Secret<F61>) -> Secret<u64> {
        Secret(self.0.ct_eq(other.0))
    }

    /// Constant-time selection between two secret elements under a secret
    /// mask (`a` where all-ones, `b` where zero). No branch is taken on
    /// any of the three inputs.
    pub fn ct_select(mask: &Secret<u64>, a: &Secret<F61>, b: &Secret<F61>) -> Secret<F61> {
        Secret(F61::ct_select(mask.0, a.0, b.0))
    }
}

impl Secret<R64> {
    /// Constant-time equality of two secret ring elements (see
    /// [`Secret::<F61>::ct_eq`]).
    pub fn ct_eq(&self, other: &Secret<R64>) -> Secret<u64> {
        Secret(self.0.ct_eq(other.0))
    }

    /// Constant-time selection between two secret ring elements under a
    /// secret mask.
    pub fn ct_select(mask: &Secret<u64>, a: &Secret<R64>, b: &Secret<R64>) -> Secret<R64> {
        Secret(R64::ct_select(mask.0, a.0, b.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_is_redacted() {
        let s = Secret::new(vec![R64(0xDEAD_BEEF)]);
        let d = format!("{s:?}");
        assert_eq!(d, "Secret { <redacted> }");
        assert!(!d.contains("3735928559") && !d.to_lowercase().contains("dead"));
    }

    #[test]
    fn open_via_records_actual_count() {
        let log = DisclosureLog::new();
        let s = Secret::new(vec![F61::new(1), F61::new(2), F61::new(3)]);
        let v = s.open_via(&log, OpenMode::Aggregate("triple of values"));
        assert_eq!(v.len(), 3);
        let entries = log.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].scalars, 3);
        assert_eq!(entries[0].source_party, None);
    }

    #[test]
    fn open_via_party_and_silent_modes() {
        let log = DisclosureLog::new();
        Secret::new(R64(7)).open_via(&log, OpenMode::Party(2, "party 2 value"));
        Secret::new(R64(8)).open_via(&log, OpenMode::Replica);
        Secret::new(R64(9)).open_via(&log, OpenMode::Pad);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.per_party_scalars(), 1);
    }

    #[test]
    fn combinators_stay_wrapped() {
        let log = DisclosureLog::new();
        let doubled = Secret::new(R64(5)).map(|x| x + x);
        assert_eq!(doubled.open_via(&log, OpenMode::Pad), R64(10));
    }

    #[test]
    fn add_assign_checks_lengths() {
        let mut a = Secret::new(vec![R64(1), R64(2)]);
        let b = Secret::new(vec![R64(10), R64(20)]);
        a.add_assign_secret(&b).unwrap();
        let log = DisclosureLog::new();
        assert_eq!(a.open_via(&log, OpenMode::Pad), vec![R64(11), R64(22)]);
        let mut c = Secret::new(vec![R64(1)]);
        assert!(c.add_assign_secret(&b).is_err());
    }

    #[test]
    fn pad_into_roundtrip() {
        let pad = Secret::new(vec![R64(100), R64(200)]);
        let mut buf = vec![R64(1), R64(2)];
        pad.pad_into(&mut buf, true).unwrap();
        assert_eq!(buf, vec![R64(101), R64(202)]);
        pad.pad_into(&mut buf, false).unwrap();
        assert_eq!(buf, vec![R64(1), R64(2)]);
        let mut short = vec![R64(0)];
        assert!(pad.pad_into(&mut short, true).is_err());
    }

    #[test]
    fn ct_combinators_stay_wrapped() {
        let log = DisclosureLog::new();
        let a = Secret::new(F61::new(5));
        let b = Secret::new(F61::new(9));
        let mask = a.ct_eq(&a);
        let picked = Secret::<F61>::ct_select(&mask, &a, &b);
        assert_eq!(picked.open_via(&log, OpenMode::Pad), F61::new(5));
        let zero_mask = Secret::new(F61::new(5)).ct_eq(&b);
        let other = Secret::<F61>::ct_select(&zero_mask, &a, &b);
        assert_eq!(other.open_via(&log, OpenMode::Pad), F61::new(9));
        let ra = Secret::new(R64(1));
        let rb = Secret::new(R64(2));
        let rmask = ra.ct_eq(&rb);
        assert_eq!(rmask.open_via(&log, OpenMode::Pad), 0);
        let sel = Secret::<R64>::ct_select(&ra.ct_eq(&ra), &ra, &rb);
        assert_eq!(sel.open_via(&log, OpenMode::Pad), R64(1));
    }

    #[test]
    fn scalar_counts() {
        assert_eq!(Secret::new(R64(1)).scalar_count(), 1);
        assert_eq!(Secret::new(F61::new(1)).scalar_count(), 1);
        assert_eq!(Secret::new(vec![R64(1); 5]).scalar_count(), 5);
        let mut dealer = crate::dealer::TrustedDealer::new(2, 1).unwrap();
        let batch = dealer.deal_inners(4, 3).remove(0);
        assert_eq!(batch.count(), 3);
        assert_eq!(batch.scalar_count(), 27);
    }
}
