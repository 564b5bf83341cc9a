//! Error type for the MPC substrate.

use std::fmt;

/// Errors from encoding, protocols and the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub enum MpcError {
    /// A value did not fit the fixed-point range for the configured number
    /// of fractional bits. The caller should reduce `frac_bits` or rescale
    /// its statistics.
    FixedPointOverflow {
        value: f64,
        max_abs: f64,
        frac_bits: u32,
    },
    /// A non-finite value (NaN/∞) was handed to the fixed-point encoder.
    NotFinite { value: f64 },
    /// `frac_bits` outside the supported range.
    BadFracBits { frac_bits: u32, max: u32 },
    /// Two protocol inputs disagreed on length.
    LengthMismatch {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// A message arrived with the wrong protocol tag — the parties are out
    /// of sync, which in a deterministic protocol is a programming error on
    /// the caller's side (e.g. parties running different mode configs).
    UnexpectedMessage {
        expected_tag: u32,
        got_tag: u32,
        from: usize,
    },
    /// A channel to a peer closed mid-protocol (peer thread panicked or
    /// exited early).
    ChannelClosed { peer: usize },
    /// No message arrived from `peer` within the receive deadline. The
    /// peer is stalled, partitioned, or has silently dropped the message;
    /// the survivor reports how long it actually waited.
    Timeout {
        peer: usize,
        tag: u32,
        waited: std::time::Duration,
    },
    /// A party's protocol execution failed outright — it panicked.
    /// Survivors see [`MpcError::ChannelClosed`] or [`MpcError::Timeout`];
    /// the failed party's own result slot carries this variant with the
    /// captured panic reason.
    PartyFailed { party: usize, reason: String },
    /// A payload arrived whose length is not a whole number of 8-byte
    /// words, so it cannot be decoded without silently dropping trailing
    /// bytes.
    MalformedPayload { from: usize, len: usize },
    /// A peer sprayed more early-sequence frames than the per-link
    /// reorder buffer holds. A correct peer, even replaying after a
    /// reconnect, stays far below the cap, so overflow means the peer is
    /// misbehaving (or the link is corrupting sequence numbers); failing
    /// structurally beats growing without bound.
    ReorderOverflow { peer: usize, buffered: usize },
    /// The TCP connect handshake with a peer failed: the peer answered
    /// with a different run id or protocol version, claimed an impossible
    /// party id, or the socket died before the hello exchange finished.
    Handshake { peer: usize, reason: String },
    /// This Beaver round needs a batch of `wanted` triples and the dealer
    /// offers one of `available` (0: no dealer, or its stream has ended).
    DealerExhausted { wanted: usize, available: usize },
    /// A party id outside `0..n_parties`.
    NoSuchParty { id: usize, n_parties: usize },
    /// A protocol invariant was violated by the caller (e.g. mismatched
    /// block tag scopes).
    Protocol { what: &'static str },
    /// The number of parties is unsupported for the operation (e.g. fewer
    /// than two for a multi-party protocol).
    BadPartyCount { n_parties: usize, min: usize },
    /// Link supervision declared the peer dead: its link is down or idle
    /// past the liveness deadline, heartbeats included, and the bounded
    /// reconnect loop could not bring it back. Distinct from
    /// [`MpcError::Timeout`], which means the peer is alive but slow.
    PeerCrashed {
        peer: usize,
        silent_for: std::time::Duration,
    },
    /// A resume handshake could not be reconciled with the live link
    /// state: the peer expects sequence numbers outside what the replay
    /// buffer still holds, or the resumed state contradicts the run
    /// (different cursor than any the link ever issued). Unrecoverable —
    /// restarting from this checkpoint cannot produce a consistent run.
    ResumeMismatch { peer: usize, reason: String },
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::FixedPointOverflow {
                value,
                max_abs,
                frac_bits,
            } => write!(
                f,
                "value {value} exceeds fixed-point range ±{max_abs} at {frac_bits} fractional bits"
            ),
            MpcError::NotFinite { value } => {
                write!(f, "cannot encode non-finite value {value}")
            }
            MpcError::BadFracBits { frac_bits, max } => {
                write!(
                    f,
                    "frac_bits = {frac_bits} outside supported range 1..={max}"
                )
            }
            MpcError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected length {expected}, got {got}"),
            MpcError::UnexpectedMessage {
                expected_tag,
                got_tag,
                from,
            } => write!(
                f,
                "protocol desync: expected tag {expected_tag}, got {got_tag} from party {from}"
            ),
            MpcError::ChannelClosed { peer } => {
                write!(f, "channel to party {peer} closed mid-protocol")
            }
            MpcError::Timeout { peer, tag, waited } => write!(
                f,
                "timed out after {waited:?} waiting for tag {tag} from party {peer}"
            ),
            MpcError::PartyFailed { party, reason } => {
                write!(f, "party {party} failed: {reason}")
            }
            MpcError::MalformedPayload { from, len } => write!(
                f,
                "malformed payload from party {from}: {len} bytes is not a whole number of words"
            ),
            MpcError::ReorderOverflow { peer, buffered } => write!(
                f,
                "reorder buffer overflow: party {peer} has {buffered} early frames outstanding"
            ),
            MpcError::Handshake { peer, reason } => {
                write!(f, "handshake with party {peer} failed: {reason}")
            }
            MpcError::DealerExhausted { wanted, available } => {
                write!(f, "dealer: wanted {wanted} triples, batch has {available}")
            }
            MpcError::NoSuchParty { id, n_parties } => {
                write!(f, "party id {id} out of range for {n_parties} parties")
            }
            MpcError::Protocol { what } => {
                write!(f, "protocol invariant violated: {what}")
            }
            MpcError::BadPartyCount { n_parties, min } => {
                write!(f, "{n_parties} parties unsupported; need at least {min}")
            }
            MpcError::PeerCrashed { peer, silent_for } => write!(
                f,
                "party {peer} is dead: silent for {silent_for:?}, past the liveness deadline"
            ),
            MpcError::ResumeMismatch { peer, reason } => {
                write!(f, "resume with party {peer} cannot be reconciled: {reason}")
            }
        }
    }
}

impl std::error::Error for MpcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_overflow_names_limits() {
        let e = MpcError::FixedPointOverflow {
            value: 1e20,
            max_abs: 2147483648.0,
            frac_bits: 32,
        };
        let s = e.to_string();
        assert!(s.contains("1e20") || s.contains("100000000000000000000"));
        assert!(s.contains("32"));
    }

    #[test]
    fn display_reorder_overflow_and_handshake() {
        let e = MpcError::ReorderOverflow {
            peer: 3,
            buffered: 1024,
        };
        let s = e.to_string();
        assert!(s.contains("party 3") && s.contains("1024"));
        let e = MpcError::Handshake {
            peer: 1,
            reason: "run id mismatch".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("party 1") && s.contains("run id mismatch"));
    }

    #[test]
    fn display_crash_and_resume_verdicts() {
        let e = MpcError::PeerCrashed {
            peer: 2,
            silent_for: std::time::Duration::from_secs(12),
        };
        let s = e.to_string();
        assert!(s.contains("party 2") && s.contains("dead"), "{s}");
        let e = MpcError::ResumeMismatch {
            peer: 0,
            reason: "peer expects seq 5 but replay starts at 9".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("party 0") && s.contains("seq 5"), "{s}");
    }

    #[test]
    fn display_desync_names_parties() {
        let e = MpcError::UnexpectedMessage {
            expected_tag: 3,
            got_tag: 7,
            from: 2,
        };
        assert!(e.to_string().contains("party 2"));
    }
}
