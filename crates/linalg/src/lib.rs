//! Dense linear algebra substrate for the DASH secure multi-party linear
//! regression suite.
//!
//! The association-scan algorithm needs a small but carefully chosen set of
//! kernels, all of which are implemented here from scratch (no BLAS/LAPACK):
//!
//! - a column-major [`Matrix`] type whose columns are contiguous slices, so
//!   that streaming over the M transient covariates `X_m` is cache-friendly
//!   ([`matrix`]);
//! - level-1/2/3 kernels: dots, axpy, `Aᵀv`, `Av`, and a blocked `AᵀB`
//!   ([`ops`]);
//! - thin Householder QR with a deterministic positive-diagonal sign
//!   convention ([`qr`]), the backbone of both the plaintext scan and the
//!   per-party `R_k` factors of the secure protocol;
//! - TSQR tree reduction over row blocks ([`tsqr`]), the "tall and skinny QR"
//!   of the paper's footnote 2 and the combine step of its multi-party QR;
//! - triangular solves and inversion ([`tri`]) for `Q_k = C_k R⁻¹`;
//! - Cholesky ([`chol`]) for the aggregate-only secure mode where only
//!   `G = CᵀC` is opened and `R = chol(G)`;
//! - column centering utilities ([`center`]) implementing the paper's
//!   intercept-as-centering observation.
//!
//! All fallible operations return [`LinalgError`]; nothing panics on bad
//! shapes in release builds.
//!
//! # Example: the multi-party QR identity
//!
//! ```
//! use dash_linalg::{qr_r_factor, tsqr_r, Matrix};
//!
//! // Two parties' covariate blocks…
//! let c1 = Matrix::from_rows(&[&[1.0, 0.5], &[1.0, -0.5], &[1.0, 2.0]]).unwrap();
//! let c2 = Matrix::from_rows(&[&[1.0, 1.5], &[1.0, 0.0]]).unwrap();
//! // …have the same combined R factor whether pooled or tree-reduced:
//! let pooled = Matrix::vstack(&[&c1, &c2]).unwrap();
//! let direct = qr_r_factor(&pooled).unwrap();
//! let tree = tsqr_r(&[c1, c2]).unwrap();
//! assert!(tree.max_abs_diff(&direct).unwrap() < 1e-12);
//! ```

pub mod center;
pub mod chol;
pub mod eigen;
pub mod error;
pub mod matrix;
pub mod ops;
pub mod qr;
pub mod tri;
pub mod tsqr;

pub use center::{center_columns, center_vector, column_means};
pub use chol::cholesky_upper;
pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use ops::{axpy, dot, frobenius_norm, gemm_at_b, gemv, gemv_t, scan_dots, self_dot, ScanDots};
pub use qr::{qr_r_factor, qr_thin, ThinQr};
pub use tri::{invert_upper, solve_lower, solve_upper};
pub use tsqr::{combine_r_factors, tsqr_r};

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, LinalgError>;
