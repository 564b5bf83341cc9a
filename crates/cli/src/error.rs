//! CLI error type.

use std::fmt;

/// Errors surfaced to the terminal user.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the message includes usage text.
    Usage(String),
    /// A flag value failed to parse.
    BadValue {
        flag: String,
        value: String,
        expected: &'static str,
    },
    /// IO failure.
    Io(std::io::Error),
    /// An analysis failed.
    Core(dash_core::CoreError),
    /// Workload IO/parsing failed.
    Gwas(dash_gwas::GwasError),
    /// `dash trace check` read the trace and it is invalid: one problem
    /// per entry.
    TraceInvalid(Vec<String>),
    /// `dash trace check` could not check: a bad invocation or an
    /// unreadable file.
    CannotCheck(String),
}

impl CliError {
    /// The process exit code: 2 when `dash trace check` could not check,
    /// as a checker's "no verdict"; 1 for every other failure.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::CannotCheck(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "invalid value {value:?} for {flag}: expected {expected}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Core(e) => write!(f, "analysis error: {e}"),
            CliError::Gwas(e) => write!(f, "data error: {e}"),
            CliError::TraceInvalid(errs) => {
                let lines: Vec<String> =
                    errs.iter().map(|e| format!("trace invalid: {e}")).collect();
                write!(f, "{}", lines.join("\n"))
            }
            CliError::CannotCheck(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<dash_core::CoreError> for CliError {
    fn from(e: dash_core::CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<dash_gwas::GwasError> for CliError {
    fn from(e: dash_gwas::GwasError) -> Self {
        CliError::Gwas(e)
    }
}

impl From<dash_linalg::LinalgError> for CliError {
    fn from(e: dash_linalg::LinalgError) -> Self {
        CliError::Core(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = CliError::BadValue {
            flag: "--alpha".into(),
            value: "abc".into(),
            expected: "a number in (0, 1)",
        };
        let s = e.to_string();
        assert!(s.contains("--alpha") && s.contains("abc"));
        let e: CliError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
    }
}
