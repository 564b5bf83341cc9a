//! Seeded violations for the panic-free lint.
//! Not compiled by cargo — parsed by the analyzer's integration tests.

/// VIOLATION: unwrap on the hot path.
fn take_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

/// VIOLATION: expect on the hot path.
fn take_expect(v: Option<u32>) -> u32 {
    v.expect("always present")
}

/// VIOLATION: explicit panic.
fn boom(flag: bool) {
    if flag {
        panic!("protocol desync");
    }
}

/// VIOLATION: unreachable in a match arm.
fn pick(mode: u8) -> u8 {
    match mode {
        0 => 1,
        _ => unreachable!("handled above"),
    }
}

/// VIOLATION: a failed assert aborts the party just like panic!.
fn checked_len(v: &[u32]) {
    assert!(!v.is_empty(), "empty round");
}

/// VIOLATION: assert_eq likewise.
fn checked_eq(a: u32, b: u32) {
    assert_eq!(a, b);
}

/// OK: debug assertions are compiled out of release builds.
fn debug_only(n: usize) {
    debug_assert!(n > 0);
}

/// OK: the panic-free combinators do not trigger.
fn graceful(v: Option<u32>) -> u32 {
    v.unwrap_or(0).max(v.unwrap_or_else(|| 1)).max(v.unwrap_or_default())
}

/// OK: pragma'd documented contract.
fn documented_panic(v: Option<u32>) -> u32 {
    // dash-analyze::allow(panic-free): test-facing runner contract.
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
