//! Type-level secrecy: the [`Secret<T>`] newtype.
//!
//! The paper's security argument is that *only* the O(M) aggregated
//! statistics ever leave a party; shares, Beaver triples, PRG masks and
//! the secret-shared K-vector summands must stay local. `Secret<T>`
//! enforces that discipline structurally, beside the clippy denies at
//! the secure scope's roots and [`R64`]'s own incomparable type:
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
use crate::ring::{add_assign_vec, sub_assign_vec, R64};
use std::fmt;

/// Secret protocol material (shares, triples, masks). See the module docs
/// for the guarantees.
///
/// The inner value is inaccessible outside the crate:
///
/// ```compile_fail
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(R64::from(42));
/// let inner = s.0; // private field
/// ```
///
/// There is no `Display` (and no serialization), so a secret cannot be
/// stringified even accidentally:
///
/// ```compile_fail
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(R64::from(42));
/// let msg = format!("{}", s); // no Display impl
/// ```
///
/// The crate-internal accessors do not leak out either:
///
/// ```compile_fail
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(R64::from(42));
/// let r = s.expose(); // pub(crate) only
/// ```
///
/// `Debug` exists (containers derive it) but prints only a redaction
/// marker:
///
/// ```
/// use dash_mpc::{ring::R64, Secret};
/// let s = Secret::new(vec![R64::from(0xDEAD_BEEF)]);
/// assert_eq!(format!("{s:?}"), "Secret { <redacted> }");
/// ```
#[derive(Clone)]
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

impl ScalarCount for Vec<R64> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::words;

    #[test]
    fn debug_is_redacted() {
        let s = Secret::new(vec![R64::from(0xDEAD_BEEF)]);
        let d = format!("{s:?}");
        assert_eq!(d, "Secret { <redacted> }");
        assert!(!d.contains("3735928559") && !d.to_lowercase().contains("dead"));
    }

    #[test]
    fn open_via_records_actual_count() {
        let log = DisclosureLog::new();
        let s = Secret::new(vec![R64::from(1), R64::from(2), R64::from(3)]);
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
        Secret::new(R64::from(7)).open_via(&log, OpenMode::Party(2, "party 2 value"));
        Secret::new(R64::from(8)).open_via(&log, OpenMode::Replica);
        Secret::new(R64::from(9)).open_via(&log, OpenMode::Pad);
        assert_eq!(log.entries().len(), 1);
        assert_eq!(log.per_party_scalars(), 1);
    }

    #[test]
    fn combinators_stay_wrapped() {
        let log = DisclosureLog::new();
        let doubled = Secret::new(R64::from(5)).map(|x| x + x);
        assert_eq!(doubled.open_via(&log, OpenMode::Pad).declassify(), 10);
    }

    #[test]
    fn add_assign_checks_lengths() {
        let mut a = Secret::new(vec![R64::from(1), R64::from(2)]);
        let b = Secret::new(vec![R64::from(10), R64::from(20)]);
        a.add_assign_secret(&b).unwrap();
        let log = DisclosureLog::new();
        assert_eq!(words(&a.open_via(&log, OpenMode::Pad)), [11, 22]);
        let mut c = Secret::new(vec![R64::from(1)]);
        assert!(c.add_assign_secret(&b).is_err());
    }

    #[test]
    fn pad_into_roundtrip() {
        let pad = Secret::new(vec![R64::from(100), R64::from(200)]);
        let mut buf = vec![R64::from(1), R64::from(2)];
        pad.pad_into(&mut buf, true).unwrap();
        assert_eq!(words(&buf), [101, 202]);
        pad.pad_into(&mut buf, false).unwrap();
        assert_eq!(words(&buf), [1, 2]);
        let mut short = vec![R64::from(0)];
        assert!(pad.pad_into(&mut short, true).is_err());
    }

    #[test]
    fn scalar_counts() {
        assert_eq!(Secret::new(R64::from(1)).scalar_count(), 1);
        assert_eq!(Secret::new(7u64).scalar_count(), 1);
        assert_eq!(Secret::new(vec![R64::from(1); 5]).scalar_count(), 5);
        let mut dealer = crate::dealer::TrustedDealer::new(2, 1).unwrap();
        let batch = dealer.deal_inners(4, 3).remove(0);
        assert_eq!(batch.count(), 3);
        assert_eq!(batch.scalar_count(), 27);
    }
}
