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
//! - [`ring`]: the ring **Z₂⁶⁴** (wrapping `u64`), the one arithmetic
//!   domain: masked sums that open immediately, and Beaver products where
//!   shares are *multiplied* before anything opens. Its element, [`R64`],
//!   cannot be compared, divided or read outside `ring.rs`, so share
//!   arithmetic is constant-time by type.
//! - [`fixed`]: fixed-point encoding of `f64` statistics into ring
//!   elements with explicit overflow errors, and the one exactness bound
//!   for Beaver products.
//! - [`prg`]: deterministic pseudo-random generator for the pairwise
//!   correlated masks and the dealer's triples.
//! - [`transport`]: the one [`transport::Transport`] trait between a
//!   party's protocol and the wire — implementors move tagged frames,
//!   each once and in order; the word codec, tag check and timeout
//!   accounting are provided once on top.
//! - [`net`]: the in-process mpsc implementor ([`net::Endpoint`]), the
//!   exact per-link byte/message accounting every implementor records
//!   into, and the one party runner.
//! - [`tcp`]: the real-socket implementor ([`tcp::TcpTransport`]) — one
//!   OS process per party, length-prefixed frames, deterministic connect
//!   handshake, identical error surface and accounting to the
//!   in-process endpoint. It is the socket/thread shell around the
//!   crate-private `link` machine, which states a link's sequence
//!   (numbering, ordering, dedup), replay, ack, liveness and reconnect
//!   rules once and does no I/O.
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

// The secure scope's panic-free, indexing and print discipline, stated
// to the compiler: a party that panics mid-round stalls or crashes every
// peer, and a party that prints may print a share. The same list sits on
// `pub mod secure;` in dash-core (the root package's
// tests/scope_roots.rs keeps the two equal). Unit tests assert and print freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro
    )
)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

// The half of panic-free no clippy lint states: outside unit tests an
// `assert!`, `assert_eq!` or `assert_ne!` in this crate does not compile.
// Textual macro scope covers every module declared below; `debug_assert!`
// expands through `::core::assert!` and still compiles, as does a
// compile-time `const _: () = ::core::assert!(..)`. A call named by its
// path (`std::assert!(..)`) also passes the shadow, so check.sh's seeded
// stage rejects any path to the three outside a `const _` item. The same
// three shadows open `crates/core/src/secure/mod.rs`.
#[cfg(not(test))]
#[allow(unused_macros, reason = "a shadow: used means the build fails")]
macro_rules! assert {
    ($($t:tt)*) => {
        compile_error!("assert! aborts a party mid-round: return an error")
    };
}
#[cfg(not(test))]
#[allow(unused_macros, reason = "a shadow: used means the build fails")]
macro_rules! assert_eq {
    ($($t:tt)*) => {
        compile_error!("assert_eq! aborts a party mid-round: return an error")
    };
}
#[cfg(not(test))]
#[allow(unused_macros, reason = "a shadow: used means the build fails")]
macro_rules! assert_ne {
    ($($t:tt)*) => {
        compile_error!("assert_ne! aborts a party mid-round: return an error")
    };
}

pub mod audit;
pub mod chaos;
pub mod dealer;
pub mod error;
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
pub use fixed::FixedPointCodec;
pub use net::{NetOptions, Network, NetworkStats};
pub use party::{CtxState, Opening, PartyCtx};
// The observability layer (spans, typed counters, JSON trace export)
// lives in its own dependency-free crate; re-export the handle types the
// protocol and application layers need.
pub use chaos::{ChaosMode, ChaosPolicy, ChaosProxy};
pub use dash_obs::{Counter as TraceCounter, SpanRecord, TraceHandle};
pub use ring::R64;
pub use secret::{OpenMode, ScalarCount, Secret};
pub use tcp::{LinkSupervision, TcpConfig, TcpTransport};
pub use transport::{Transport, TransportConfig};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MpcError>;
