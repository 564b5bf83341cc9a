//! Seeded violations for the secret-taint lint.
//! Not compiled by cargo — parsed by the analyzer's integration tests.

/// VIOLATION: a triple type deriving Debug would print its shares.
#[derive(Debug, Clone)]
pub struct LeakyTriple {
    pub a: R64,
    pub b: R64,
}

/// VIOLATION: a neutral name, but the field names secret material.
#[derive(Debug)]
struct PadBuffer {
    mask_words: Vec<u64>,
}

/// OK: container with innocuous fields may derive Debug.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    pub frac_bits: u32,
    pub seed: u64,
}

/// VIOLATION: printing in secure code.
fn chatty(n: usize) {
    println!("aggregated {n} rows");
}

/// VIOLATION: a secret-named identifier reaches an assertion's output.
fn check_share(qty_share: &[R64]) {
    debug_assert_eq!(qty_share.len(), 4, "bad share length");
}

/// OK: formatting public metadata only.
fn describe(label: &str, scalars: usize) -> String {
    format!("{label}: {scalars} scalars")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_inspect_secrets() {
        let share = vec![1u64];
        assert_eq!(share.len(), 1);
        println!("{share:?}");
    }
}
