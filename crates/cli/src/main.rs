//! Binary entry point for the `dash` CLI.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    match dash_cli::run(&argv, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        // An invalid trace is a verdict, printed as its own lines.
        Err(e @ dash_cli::CliError::TraceInvalid(_)) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
