//! Statistics substrate for the DASH secure multi-party linear regression
//! suite.
//!
//! The association scan turns each per-variant effect estimate into a
//! t-statistic and a p-value (§2 of the paper: `β̂/σ̂ ~ t(N−K−1)` under the
//! null), and the meta-analysis baseline of §3 needs inverse-variance
//! weighting plus Cochran's Q heterogeneity. Everything here is implemented
//! from scratch on top of three special functions ([`special`]):
//! the log-gamma function, the regularized incomplete gamma functions and
//! the regularized incomplete beta function, all accurate to close to f64
//! precision so that genome-wide significance thresholds (p ≈ 5·10⁻⁸) are
//! meaningful.
//!
//! # Example: the R demo's p-value step
//!
//! ```
//! use dash_stats::StudentT;
//!
//! // pval = 2 * pt(-abs(tstat), D) with D = N - K - 1 = 4496.
//! let t = StudentT::new(4496.0).unwrap();
//! let p = t.two_sided_p(-1.6491);
//! assert!((p - 0.0992).abs() < 1e-3);
//! ```

pub mod chi2;
pub mod error;
pub mod fdist;
pub mod fdr;
pub mod meta;
pub mod normal;
pub mod special;
pub mod tdist;

pub use chi2::ChiSquared;
pub use error::StatsError;
pub use fdist::FDistribution;
pub use fdr::{benjamini_hochberg, bh_hits};
pub use meta::{cochran_q, fixed_effect_meta, MetaResult};
pub use normal::Normal;
pub use special::{erf, erfc, ln_gamma, reg_inc_beta, reg_inc_gamma_p, reg_inc_gamma_q};
pub use tdist::StudentT;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
