//! Seeded violations of the secure scope's print discipline: a party
//! that prints may print a share. `scripts/check.sh` compiles this file
//! as a module of `dash-mpc`, and again of dash-core's `secure` module,
//! where clippy must fail each line marked `// seeded: clippy::<lint>`
//! with that lint, once per mark, and nothing else.

/// VIOLATION: printing to stdout.
fn chatty(n: usize) {
    println!("aggregated {n} rows"); // seeded: clippy::print_stdout
}

/// VIOLATION: printing to stderr.
fn grumpy(n: usize) {
    eprintln!("round {n} stalled"); // seeded: clippy::print_stderr
}

/// VIOLATION: a debugging leftover prints its argument's `Debug`.
fn peek(n: usize) -> usize {
    dbg!(n) // seeded: clippy::dbg_macro
}

/// OK: formatting public metadata into a value prints nothing.
fn describe(label: &str, scalars: usize) -> String {
    format!("{label}: {scalars} scalars")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_print() {
        println!("{}", super::describe("t", 1));
    }
}
