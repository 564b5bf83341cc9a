//! Experiment harness utilities: workload presets, wall-clock timing and
//! aligned table printing shared by the `exp*` binaries.
//!
//! Each quantitative claim of the paper maps to one binary in `src/bin/`
//! (see DESIGN.md §3 for the experiment index); this crate keeps them
//! small and uniform.

pub mod dudect;
pub mod table;
pub mod timing;
pub mod workloads;

pub use table::Table;
pub use timing::{time_median, Timed};
