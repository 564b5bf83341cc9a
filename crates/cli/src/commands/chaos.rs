//! `dash chaos` — socket-level fault-injection proxy for resilience
//! testing.
//!
//! Sits between one party and the rest of the mesh and injects the
//! failures a supervised transport must survive (or fail structurally
//! on): connection resets mid-stream, network partitions and
//! slow-loris trickle. Point the *dialing* party's `--peers` entry for
//! the victim at the proxy's listen address; the proxy forwards to the
//! victim's real address.
//!
//! ```text
//! dash chaos --listen 127.0.0.1:9200 --upstream 127.0.0.1:9100 \
//!            --fault rst-after=4096 --policy first-connection &
//! dash party --id 1 --peers 127.0.0.1:9200,127.0.0.1:9101 ...
//! ```
//!
//! The proxy runs until killed (or until `--duration-ms` elapses) and
//! prints a connection/byte summary on exit.

use crate::args::Flags;
use crate::error::CliError;
use dash_mpc::chaos::{ChaosMode, ChaosPolicy, ChaosProxy};
use std::io::Write;
use std::net::TcpListener;
use std::time::Duration;

const USAGE: &str = "\
dash chaos — TCP fault-injection proxy (resilience testing)

REQUIRED:
    --listen ADDR     address to accept party connections on (host:port)
    --upstream ADDR   real address of the party being proxied

OPTIONS:
    --fault SPEC      fault to inject [default: passthrough]
                        passthrough           forward verbatim
                        rst-after=N           reset the connection after N bytes
                        slow-loris=CHUNK:MS   trickle CHUNK bytes every MS ms
                        partition-after=N:MS  after N bytes, black-hole ALL
                                              traffic for MS ms
    --policy P        which connections are faulted: every-connection |
                      first-connection [default: every-connection]
    --duration-ms N   stop after N ms (0 = run until killed) [default: 0]";

fn bad(flag: &str, value: &str, expected: &'static str) -> CliError {
    CliError::BadValue {
        flag: flag.into(),
        value: value.into(),
        expected,
    }
}

/// Parses `N:MS` pairs used by the slow-loris/partition specs.
fn parse_pair(flag: &str, body: &str, expected: &'static str) -> Result<(u64, u64), CliError> {
    let (a, b) = body
        .split_once(':')
        .ok_or_else(|| bad(flag, body, expected))?;
    let a = a.parse().map_err(|_| bad(flag, body, expected))?;
    let b = b.parse().map_err(|_| bad(flag, body, expected))?;
    Ok((a, b))
}

/// Parses a `--fault` specification into a [`ChaosMode`].
pub(crate) fn parse_fault(raw: &str) -> Result<ChaosMode, CliError> {
    if raw == "passthrough" {
        return Ok(ChaosMode::Passthrough);
    }
    let (kind, body) = raw.split_once('=').ok_or_else(|| {
        bad(
            "--fault",
            raw,
            "passthrough | rst-after=N | slow-loris=CHUNK:MS | partition-after=N:MS",
        )
    })?;
    match kind {
        "rst-after" => {
            let n = body
                .parse()
                .map_err(|_| bad("--fault", raw, "rst-after=N with N a byte count"))?;
            Ok(ChaosMode::RstAfterBytes(n))
        }
        "slow-loris" => {
            let (chunk, ms) = parse_pair("--fault", body, "slow-loris=CHUNK:MS")?;
            if chunk == 0 {
                return Err(bad("--fault", raw, "a chunk size of at least 1 byte"));
            }
            Ok(ChaosMode::SlowLoris {
                chunk: chunk as usize,
                delay: Duration::from_millis(ms),
            })
        }
        "partition-after" => {
            let (n, ms) = parse_pair("--fault", body, "partition-after=N:MS")?;
            Ok(ChaosMode::PartitionAfterBytes {
                bytes: n,
                window: Duration::from_millis(ms),
            })
        }
        _ => Err(bad(
            "--fault",
            raw,
            "passthrough | rst-after=N | slow-loris=CHUNK:MS | partition-after=N:MS",
        )),
    }
}

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, USAGE)?;
    let listen = flags.required("listen", USAGE)?;
    let upstream_raw = flags.required("upstream", USAGE)?;
    let upstream = upstream_raw
        .parse()
        .map_err(|_| bad("--upstream", &upstream_raw, "a socket address (host:port)"))?;
    let fault = parse_fault(
        &flags
            .optional("fault")
            .unwrap_or_else(|| "passthrough".into()),
    )?;
    let policy_raw = flags
        .optional("policy")
        .unwrap_or_else(|| "every-connection".into());
    let policy = match policy_raw.as_str() {
        "every-connection" => ChaosPolicy::EveryConnection,
        "first-connection" => ChaosPolicy::FirstConnectionOnly,
        other => {
            return Err(bad(
                "--policy",
                other,
                "every-connection or first-connection",
            ))
        }
    };
    let duration_ms = flags.parse_or("duration-ms", 0u64, "milliseconds (0 = forever)")?;
    flags.reject_unknown(USAGE)?;

    let listener = TcpListener::bind(&listen)
        .map_err(|e| CliError::Usage(format!("cannot bind --listen {listen}: {e}")))?;
    let bound = listener.local_addr().map_err(CliError::Io)?;
    let proxy = ChaosProxy::start_on(listener, upstream, fault, policy).map_err(CliError::Io)?;
    writeln!(
        out,
        "chaos proxy on {bound} -> {upstream} fault={fault:?} policy={policy:?}"
    )?;
    out.flush()?;

    if duration_ms == 0 {
        // Foreground service: park until killed. The proxy threads do
        // the work; SIGTERM/SIGKILL is the expected exit.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    writeln!(
        out,
        "chaos proxy served {} connections, forwarded {} bytes",
        proxy.connections(),
        proxy.forwarded_bytes()
    )?;
    proxy.stop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpStream;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fault_specs_parse() {
        assert_eq!(parse_fault("passthrough").unwrap(), ChaosMode::Passthrough);
        assert_eq!(
            parse_fault("rst-after=512").unwrap(),
            ChaosMode::RstAfterBytes(512)
        );
        assert_eq!(
            parse_fault("slow-loris=8:5").unwrap(),
            ChaosMode::SlowLoris {
                chunk: 8,
                delay: Duration::from_millis(5)
            }
        );
        assert_eq!(
            parse_fault("partition-after=64:1000").unwrap(),
            ChaosMode::PartitionAfterBytes {
                bytes: 64,
                window: Duration::from_millis(1000)
            }
        );
        for bogus in [
            "rst-after",
            "rst-after=x",
            "partition-after=5",
            "slow-loris=0:5",
            "meteor-strike=9",
        ] {
            assert!(parse_fault(bogus).is_err(), "{bogus} should not parse");
        }
    }

    #[test]
    fn bad_flags_rejected() {
        let mut buf = Vec::new();
        assert!(run(&argv(&[]), &mut buf).is_err());
        assert!(run(
            &argv(&["--listen", "127.0.0.1:0", "--upstream", "nope"]),
            &mut buf
        )
        .is_err());
        assert!(run(
            &argv(&[
                "--listen",
                "127.0.0.1:0",
                "--upstream",
                "127.0.0.1:1",
                "--fault",
                "bogus"
            ]),
            &mut buf
        )
        .is_err());
    }

    /// End-to-end through the command path: a timed passthrough proxy
    /// must relay bytes both ways and report its totals.
    #[test]
    fn timed_passthrough_relays() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            if let Ok((mut s, _)) = upstream.accept() {
                let mut buf = [0u8; 5];
                s.read_exact(&mut buf).ok();
                s.write_all(&buf).ok();
            }
        });

        // Reserve a port for the proxy, then run the command on it.
        let holder = TcpListener::bind("127.0.0.1:0").unwrap();
        let listen = holder.local_addr().unwrap().to_string();
        drop(holder);
        let listen_arg = listen.clone();
        let cmd = std::thread::spawn(move || {
            let mut buf = Vec::new();
            run(
                &argv(&[
                    "--listen",
                    &listen_arg,
                    "--upstream",
                    &up_addr.to_string(),
                    "--duration-ms",
                    "1500",
                ]),
                &mut buf,
            )
            .unwrap();
            String::from_utf8(buf).unwrap()
        });

        // Give the proxy a moment to bind, then bounce a message.
        let mut client = None;
        for _ in 0..50 {
            match TcpStream::connect(&listen) {
                Ok(s) => {
                    client = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("proxy did not come up");
        client.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        client.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        drop(client);
        echo.join().unwrap();

        let report = cmd.join().unwrap();
        assert!(report.contains("chaos proxy on"), "{report}");
        assert!(report.contains("served 1 connections"), "{report}");
        assert!(report.contains("forwarded 10 bytes"), "{report}");
    }
}
