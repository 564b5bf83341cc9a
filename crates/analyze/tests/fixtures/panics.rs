//! Seeded violations of the secure scope's panic-free discipline.
//! `scripts/check.sh` compiles this file as a module of `dash-mpc`, and
//! again of dash-core's `secure` module, where the build must fail each
//! line marked `// seeded: clippy::<lint>` with that lint, each line
//! marked `// seeded: compile_error` with the root's `assert!` shadow,
//! and each line marked `// seeded: path_assert` (an assert named by its
//! path, which the shadow does not reach) with the stage's textual check,
//! and nothing else.

/// VIOLATION: unwrap on the hot path.
fn take_unwrap(v: Option<u32>) -> u32 {
    v.unwrap() // seeded: clippy::unwrap_used
}

/// VIOLATION: expect on the hot path.
fn take_expect(v: Option<u32>) -> u32 {
    v.expect("always present") // seeded: clippy::expect_used
}

/// VIOLATION: explicit panic.
fn boom(flag: bool) {
    if flag {
        panic!("protocol desync"); // seeded: clippy::panic
    }
}

/// VIOLATION: unreachable in a match arm.
fn pick(mode: u8) -> u8 {
    match mode {
        0 => 1,
        _ => unreachable!("handled above"), // seeded: clippy::unreachable
    }
}

/// VIOLATION: a failed assert aborts the party just like panic!.
fn checked_len(v: &[u32]) {
    assert!(!v.is_empty(), "empty round"); // seeded: compile_error
}

/// VIOLATION: assert_eq likewise.
fn checked_eq(a: u32, b: u32) {
    assert_eq!(a, b); // seeded: compile_error
}

/// VIOLATION: assert_ne likewise.
fn checked_ne(a: u32, b: u32) {
    assert_ne!(a, b); // seeded: compile_error
}

/// VIOLATION: an assert named by its path compiles past the shadow.
fn checked_path(v: &[u32]) {
    std::assert!(!v.is_empty()); // seeded: path_assert
}

/// VIOLATION: likewise from core, with a leading `::`.
fn checked_core_path(a: u32, b: u32) {
    ::core::assert_eq!(a, b); // seeded: path_assert
}

/// OK: debug assertions are compiled out of release builds.
fn debug_only(n: usize) {
    debug_assert!(n > 0);
}

/// OK: the panic-free combinators do not trigger.
fn graceful(v: Option<u32>) -> u32 {
    v.unwrap_or(0).max(v.unwrap_or_default())
}

/// OK: an allowance that states its reason.
#[allow(clippy::unwrap_used, reason = "test-facing runner contract")]
fn documented_panic(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic_freely() {
        Some(1u32).unwrap();
        assert!(true);
    }
}
