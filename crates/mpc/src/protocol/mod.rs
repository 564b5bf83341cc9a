//! The online protocols — exactly what a scan runs.
//!
//! - [`masked`]: the secure sum. Pairwise PRG masks cancel in the total,
//!   so only the total opens; one family in two topologies (all-to-all
//!   mesh, and a star through party 0).
//! - [`beaver`]: batched inner products on secret-shared vectors via
//!   dealer triples; used by the strictest scan mode, which opens only
//!   final per-variant dot products.

pub mod beaver;
pub mod masked;
