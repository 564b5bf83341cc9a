//! Secure multi-party computation substrate for DASH.
//!
//! The paper assumes "an SMC sum protocol which only reveals the overall
//! sum" on tiny data (§3). This crate supplies exactly what a scan runs of
//! that: one secure-sum family (pairwise-masked, mesh or star), the
//! Beaver-triple inner product its parenthetical calls for, and the
//! simulated multi-party network on which the communication claims (O(M)
//! inter-party bits, independent of N) are measured.
//!
//! Layers, bottom to top:
//!
//! - [`ctime`]: branch-free mask primitives (select, comparisons as
//!   all-ones/zero masks) underlying every constant-time arithmetic path.
//! - [`ring`]: the ring **Z₂⁶⁴** (wrapping `u64`) used by the additive
//!   secure-sum protocols — sums that are opened immediately.
//! - [`field`]: the Mersenne prime field **F_{2⁶¹−1}** used by the Beaver
//!   mode, where shares are *multiplied* before anything is opened.
//! - [`fixed`]: fixed-point encoding of `f64` statistics into ring/field
//!   elements with explicit overflow errors.
//! - [`prg`]: deterministic pseudo-random generator for the pairwise
//!   correlated masks and the dealer's triples.
//! - [`transport`]: the one [`transport::Transport`] trait between a
//!   party's protocol and the wire — implementors move sequence-numbered
//!   frames; the word codec, tag check and timeout accounting are
//!   provided once on top — plus deterministic fault injection
//!   ([`transport::FaultyTransport`]) for resilience testing.
//! - [`net`]: the in-process mpsc implementor ([`net::Endpoint`]), the
//!   exact per-link byte/message accounting every implementor records
//!   into, a latency/bandwidth cost model, and the one party runner.
//! - [`tcp`]: the real-socket implementor ([`tcp::TcpTransport`]) — one
//!   OS process per party, length-prefixed frames, deterministic connect
//!   handshake, identical error surface and accounting to the
//!   in-process endpoint. It is the socket/thread shell around the
//!   crate-private `link` machine, which states a link's sequence, replay,
//!   ack, liveness and reconnect rules once and does no I/O.
//! - [`party`]: per-party protocol context tying network, randomness and
//!   the [`audit`] disclosure log together.
//! - [`dealer`]: the trusted dealer, which additively shares
//!   inner-product triples into one flat [`dealer::TripleBatch`] per
//!   party and Beaver round.
//! - [`protocol`]: the masked secure sum (mesh and star) and the batched
//!   Beaver inner product.
//!
//! # Trust model
//!
//! Semi-honest ("honest but curious") parties, matching the paper: every
//! party follows the protocol but may inspect everything it receives. The
//! [`audit::DisclosureLog`] records every value a protocol *opens*, so
//! tests and experiments can assert exactly what each mode leaks.
//!
//! # Example
//!
//! ```
//! use dash_mpc::net::{NetOptions, Network};
//! use dash_mpc::protocol::masked::masked_sum_f64;
//! use dash_mpc::fixed::FixedPointCodec;
//!
//! // Three parties, each holding one private vector; only the total is
//! // revealed.
//! let inputs = vec![vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
//! let codec = FixedPointCodec::new(32).unwrap();
//! let (slots, _stats, _audit) =
//!     Network::run_parties_detailed_with(3, 7, &NetOptions::default(), |ctx| {
//!         masked_sum_f64(ctx, &codec, &inputs[ctx.id()], "demo total")
//!     })
//!     .unwrap();
//! for slot in slots {
//!     // Outer `Result`: the party ran to completion; inner: its protocol.
//!     let total = slot.unwrap().unwrap();
//!     assert!((total[0] - 111.0).abs() < 1e-6);
//!     assert!((total[1] - 222.0).abs() < 1e-6);
//! }
//! ```

// Unit tests assert freely; the panic-free discipline (clippy
// unwrap_used/expect_used plus the dash-analyze gate) applies to the
// non-test protocol code compiled without cfg(test).
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod audit;
pub mod chaos;
pub mod ctime;
pub mod dealer;
pub mod error;
pub mod field;
pub mod fixed;
mod link;
pub mod net;
pub mod party;
pub mod prg;
pub mod protocol;
pub mod ring;
pub mod secret;
pub mod tags;
pub mod tcp;
pub mod transport;

pub use audit::{Disclosure, DisclosureLog};
pub use dealer::TrustedDealer;
pub use error::MpcError;
pub use field::F61;
pub use fixed::FixedPointCodec;
pub use net::{CostModel, NetOptions, Network, NetworkStats};
pub use party::{CtxState, PartyCtx};
// The observability layer (spans, typed counters, JSON trace export)
// lives in its own dependency-free crate; re-export the handle types the
// protocol and application layers need.
pub use chaos::{ChaosMode, ChaosPolicy, ChaosProxy};
pub use dash_obs::{Counter as TraceCounter, SpanRecord, TraceHandle};
pub use ring::R64;
pub use secret::{OpenMode, ScalarCount, Secret};
pub use tcp::{LinkSupervision, TcpConfig, TcpTransport};
pub use transport::{
    CrashPoint, FaultPlan, FaultyTransport, RetryPolicy, Transport, TransportConfig,
};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MpcError>;
