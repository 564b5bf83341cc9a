//! GWAS workload substrate for the DASH suite.
//!
//! The paper's motivating application is genome-wide association across
//! biobanks that cannot share rows. Real cohort data is private by
//! definition, so this crate builds the closest synthetic equivalent:
//!
//! - [`genotype`]: biallelic genotype simulation under Hardy–Weinberg
//!   equilibrium with configurable minor-allele-frequency spectra and
//!   missingness;
//! - [`structure`]: Balding–Nichols population structure — per-party
//!   allele-frequency drift plus party-level phenotype offsets, the
//!   generator behind the confounding/Simpson experiments;
//! - [`pheno`]: phenotypes with planted causal variants at a chosen
//!   heritability, plus covariate effects;
//! - [`standardize`]: missing-data imputation and column standardization;
//! - [`sparse`]: CSC storage for genotype matrices and a sparsity-aware
//!   scan (§2's "columns of X can be packed sparsely");
//! - [`io`]: TSV import/export for matrices and scan results;
//! - [`power`]: truth-aware evaluation — power, false-positive rate, and
//!   the genomic-control inflation factor λ_GC.
//!
//! Everything is driven by caller-supplied `rand` RNGs for exact
//! reproducibility.

pub mod error;
pub mod genotype;
pub mod io;
pub mod kinship;
pub mod pheno;
pub mod power;
pub mod sparse;
pub mod standardize;
pub mod structure;

pub use error::GwasError;
pub use genotype::{simulate_genotypes, simulate_genotypes_ld, GenotypeMatrix, GenotypeSimConfig};
pub use kinship::{kinship_eigen_from_genotypes, kinship_matrix};
pub use pheno::{simulate_phenotype, PhenotypeSim, PhenotypeTruth};
pub use power::{evaluate_scan, lambda_gc, PowerReport};
pub use sparse::{sparse_scan_stats, SparseMatrix, SparseParty};
pub use standardize::{impute_and_standardize, standardize_columns};
pub use structure::{
    simulate_admixed_cohorts, simulate_structured_cohorts, AdmixedSimConfig, StructuredSimConfig,
};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, GwasError>;
