//! **DASH** — the Distributed Association Scan Hammer: linear-regression
//! association scans, plaintext and secure multi-party, after
//! *"Secure multi-party linear regression at plaintext speed"*.
//!
//! An *association scan* fits M simple linear models sharing K permanent
//! covariates: for each transient covariate (variant) `X_m`,
//! `y ~ X_m β_m + C γ_m + ε`. Lemma 2.1 of the paper reduces all M fits to
//! six sufficient statistics built from one orthonormal basis `Q` of
//! col(C):
//!
//! ```text
//! y·y, Qᵀy·Qᵀy, X·y, QᵀX·Qᵀy, X·X, QᵀX·QᵀX
//! ```
//!
//! and §3 observes that when the *rows* (samples) are split across P
//! parties, those statistics — and `Q` itself, via stacked per-party R
//! factors — are computable from K×K and per-variant summaries alone, so
//! the multi-party scan costs O(M) communication and plaintext-speed
//! compute.
//!
//! Module map:
//!
//! - [`model`]: party-local data ([`PartyData`]) and results
//!   ([`ScanResult`]).
//! - [`suffstats`]: the six quantities, their per-party summands, and the
//!   Lemma 2.1 finalization; also the Cᵀ-compressed form used online.
//! - [`scan`]: plaintext scans — serial, multi-threaded, and the
//!   per-variant OLS reference (`lm()` equivalent).
//! - [`secure`]: the multi-party protocol with its security-mode ladder.
//! - [`meta`]: the inverse-variance meta-analysis baseline the paper
//!   argues against.
//! - [`burden`], [`multi`], [`block`], [`lmm`], [`online`]: the §5
//!   generalizations (gene burden tests, multiple phenotypes, joint
//!   F-test blocks, linear mixed models, online batches).
//! - [`pca`], [`logistic`], [`permutation`]: extensions beyond the paper
//!   — secure distributed PCA for ancestry covariates (the preface's
//!   companion piece), case/control score scans, and max-T permutation
//!   testing.
//!
//! # Quickstart
//!
//! ```
//! use dash_core::model::PartyData;
//! use dash_core::scan::associate;
//! use dash_linalg::Matrix;
//!
//! // Tiny scan: N=6 samples, M=2 variants, K=1 intercept covariate.
//! let y = vec![1.0, 2.0, 1.5, 2.5, 3.5, 3.0];
//! let x = Matrix::from_cols(&[
//!     &[0.0, 1.0, 0.0, 1.0, 2.0, 2.0],
//!     &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
//! ]).unwrap();
//! let c = Matrix::from_cols(&[&[1.0; 6]]).unwrap();
//! let data = PartyData::new(y, x, c).unwrap();
//! let result = associate(&data).unwrap();
//! assert_eq!(result.len(), 2);
//! assert!(result.beta[0] > 0.0); // variant 0 tracks y
//! ```

// Unit tests assert freely; the workspace's unwrap_used/expect_used
// denies apply to the non-test code compiled without cfg(test).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod burden;
pub mod error;
pub mod lmm;
pub mod logistic;
pub mod meta;
pub mod model;
pub mod multi;
pub mod online;
pub mod pca;
pub mod permutation;
pub mod scan;
// The secure scope: the same panic-free, indexing and print denies as
// dash-mpc's root (crates/mpc/src/lib.rs). Its `assert!` shadows open
// secure/mod.rs, so the rest of dash-core keeps `assert!`.
#[cfg_attr(
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
pub mod secure;
pub mod suffstats;

pub use block::{block_scan, BlockTestResult, TransientBlock};
pub use error::CoreError;
pub use logistic::{fit_null_logistic, logistic_score_scan, secure_logistic_scan, ScoreScanResult};
pub use model::{pool_parties, NoRows, PartyData, RowSink, ScanResult, ScanSummary};
pub use multi::{multi_phenotype_scan, secure_multi_phenotype_scan, MultiPartyData};
pub use pca::{plaintext_pca, secure_pca, PcaConfig, SecurePcaOutput};
pub use permutation::{permutation_scan, PermutationResult};
pub use scan::{associate, associate_parallel, per_variant_ols};
pub use secure::checkpoint::{Checkpoint, CheckpointPolicy};
pub use secure::{
    secure_scan, secure_scan_party_into, secure_scan_party_with, secure_scan_tcp_local_traced,
    secure_scan_traced_with, AggregationMode, NetworkReport, RFactorMode, SecureScanConfig,
    SecureScanOutput, SummandSource, TraceCounter, TraceHandle,
};
pub use suffstats::{ScanStats, SuffStats, VariantSummands};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
