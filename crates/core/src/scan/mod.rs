//! Plaintext association scans.
//!
//! - [`parallel`]: the four-step algorithm of §2, with the variant columns
//!   distributed over worker threads — the "C total cores" of Eq. (4);
//! - [`serial`]: its one-thread case, on the calling thread;
//! - [`naive`]: per-variant full OLS (the `lm(y ~ X[,m] + C - 1)` loop of
//!   the R demo) — quadratically slower, used as the correctness oracle.

pub mod naive;
pub mod parallel;
pub mod serial;

pub use naive::per_variant_ols;
pub use parallel::associate_parallel;
pub use serial::associate;
