//! Seeded violations of the secure scope's indexing discipline.
//! `scripts/check.sh` compiles this file as a module of `dash-mpc`, where
//! clippy must fail each line marked `// seeded: clippy::<lint>` with that
//! lint, once per mark, and nothing else.

/// VIOLATION: direct indexing.
fn first(v: &[u32]) -> u32 {
    v[0] // seeded: clippy::indexing_slicing
}

/// VIOLATION: chained indexing (two sites).
fn pick(grid: &[Vec<u32>], i: usize, j: usize) -> u32 {
    grid[i][j] // seeded: clippy::indexing_slicing clippy::indexing_slicing
}

/// VIOLATION: a range slice panics out of range too.
fn tail(v: &[u32]) -> &[u32] {
    &v[1..] // seeded: clippy::indexing_slicing
}

/// OK: checked access, macros, attributes, array types.
#[derive(Clone)]
struct Fixed {
    words: [u64; 4],
}

fn second(v: &[u32]) -> Option<u32> {
    v.get(1).copied()
}

fn build() -> Vec<u32> {
    vec![1, 2, 3]
}
