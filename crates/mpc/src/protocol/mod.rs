//! The online protocols — exactly what a scan runs.
//!
//! - [`masked`]: the secure sum. Pairwise PRG masks cancel in the total,
//!   so only the total opens; one family in two topologies (all-to-all
//!   mesh, and a star through party 0).
//! - [`beaver`]: the products of secret-shared vectors with one shared,
//!   run-constant vector and with themselves, each operand masked once
//!   against the dealer's projections; used by the strictest scan mode,
//!   which opens only final per-variant dot products.

pub mod beaver;
pub mod masked;
