//! Three real `dash party` OS processes: ports, spawn, timestamps, RSS.

use crate::workload::{party_dir, PARTIES};
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Reserves `n` distinct free loopback ports: binds them all at once on
/// port 0, reads the assigned ports back and releases them for the
/// children to bind.
pub fn reserve_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let holders: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    holders
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

/// What one stdout line of `dash party` tells the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line {
    /// `party K of N listening on …`: the data directory is loaded.
    Listening,
    /// `party K: all N parties connected`: the mesh is up.
    Connected,
    /// `transport: R send retries, T receive timeouts` → R + T.
    RetriesTimeouts(u64),
    Other,
}

/// Classifies one stdout line of `dash party`.
pub fn parse_line(line: &str) -> Line {
    if line.starts_with("party ") && line.contains(" listening on ") {
        Line::Listening
    } else if line.starts_with("party ") && line.ends_with(" parties connected") {
        Line::Connected
    } else if let Some(rest) = line.strip_prefix("transport: ") {
        let nums: Vec<u64> = rest
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        match nums[..] {
            [retries, timeouts] => Line::RetriesTimeouts(retries + timeouts),
            _ => Line::Other,
        }
    } else {
        Line::Other
    }
}

/// One party's view of a run, in seconds since the first spawn.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartyTimes {
    pub listening_s: Option<f64>,
    pub connected_s: Option<f64>,
    pub exit_s: f64,
    pub retries_timeouts: Option<u64>,
}

/// Reads a child's stdout to its end, stamping each protocol event with
/// the time its line arrived.
fn watch_stdout(out: impl std::io::Read, t0: Instant) -> PartyTimes {
    let mut times = PartyTimes::default();
    for line in BufReader::new(out).lines().map_while(Result::ok) {
        let at = t0.elapsed().as_secs_f64();
        match parse_line(&line) {
            Line::Listening => times.listening_s = Some(at),
            Line::Connected => times.connected_s = Some(at),
            Line::RetriesTimeouts(n) => times.retries_timeouts = Some(n),
            Line::Other => {}
        }
    }
    times
}

/// `VmHWM` of a live process in MB, from `/proc/<pid>/status`.
fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Outcome of one three-process run.
#[derive(Debug, Clone)]
pub struct PartyRun {
    /// First spawn to last exit.
    pub wall_s: f64,
    /// Largest `VmHWM` seen over the three children.
    pub peak_rss_mb: f64,
    pub parties: Vec<PartyTimes>,
    /// Result TSV of each party.
    pub outputs: Vec<PathBuf>,
    /// A child exited non-zero, or never printed its transport line.
    pub error: Option<String>,
}

impl PartyRun {
    /// Longest load, connect and protocol phase over the parties.
    pub fn phases_s(&self) -> Option<(f64, f64, f64)> {
        let mut max = (0.0f64, 0.0f64, 0.0f64);
        for p in &self.parties {
            let (l, c) = (p.listening_s?, p.connected_s?);
            max = (max.0.max(l), max.1.max(c - l), max.2.max(p.exit_s - c));
        }
        Some(max)
    }
}

/// How often the waiting loop looks for exits and for new RSS peaks. The
/// exit poll bounds the timing error of `wall_s`; the RSS poll is coarser
/// because reading three `/proc` files costs CPU the children want.
const EXIT_POLL: Duration = Duration::from_millis(1);
const RSS_POLL: Duration = Duration::from_millis(20);

/// Kills and reaps whatever is still running when a run is abandoned.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Runs `dash party` once per party directory under `data_dir` with the
/// CLI's default flags (plus `--block-size` for the smoke shapes), writing
/// `res<i>.tsv` into `out_dir`; with `ckpt_dir`, under `--checkpoint-dir`.
pub fn run_parties(
    dash: &Path,
    data_dir: &Path,
    out_dir: &Path,
    block_size: usize,
    ckpt_dir: Option<&Path>,
) -> Result<PartyRun, String> {
    let ports = reserve_ports(PARTIES).map_err(|e| format!("reserve ports: {e}"))?;
    let peers = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    let outputs: Vec<PathBuf> = (0..PARTIES)
        .map(|i| out_dir.join(format!("res{i}.tsv")))
        .collect();

    let t0 = Instant::now();
    let mut children = Children(Vec::with_capacity(PARTIES));
    for (i, out) in outputs.iter().enumerate() {
        let mut cmd = Command::new(dash);
        cmd.arg("party")
            .args(["--id", &i.to_string(), "--peers", &peers])
            .arg("--dir")
            .arg(party_dir(data_dir, i))
            .arg("--out")
            .arg(out)
            .args(["--audit", "false"])
            .args(["--block-size", &block_size.to_string()])
            // The one departure from the defaults. A party dials its
            // lower-numbered peers as soon as it has loaded, and the
            // default 30 attempts give up after ~1.5 s; on rdemo party 2
            // (1500 rows) can finish loading that much before party 1
            // (2000 rows) listens. Waiting as long as the accept window
            // (30 s) costs a healthy run nothing.
            .args(["--connect-retries", "600"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = ckpt_dir {
            cmd.arg("--checkpoint-dir").arg(dir);
        }
        children.0.push(
            cmd.spawn()
                .map_err(|e| format!("spawn {}: {e}", dash.display()))?,
        );
    }

    std::thread::scope(|scope| {
        let watchers: Vec<_> = children
            .0
            .iter_mut()
            .map(|c| {
                let out = c.stdout.take().expect("stdout was piped");
                scope.spawn(move || watch_stdout(out, t0))
            })
            .collect();

        let mut exit_s = [None; PARTIES];
        let mut error = None;
        let mut peak_rss_mb = 0.0f64;
        let mut next_rss = Instant::now();
        while exit_s.iter().any(Option::is_none) {
            let poll_rss = Instant::now() >= next_rss;
            if poll_rss {
                next_rss += RSS_POLL;
            }
            for (i, c) in children.0.iter_mut().enumerate() {
                if exit_s[i].is_some() {
                    continue;
                }
                if poll_rss {
                    if let Some(mb) = vm_hwm_mb(c.id()) {
                        peak_rss_mb = peak_rss_mb.max(mb);
                    }
                }
                match c.try_wait() {
                    Ok(Some(status)) => {
                        exit_s[i] = Some(t0.elapsed().as_secs_f64());
                        if !status.success() {
                            error = Some(format!("party {i} exited with {status}"));
                        }
                    }
                    Ok(None) => {}
                    Err(e) => {
                        // Unreachable for an unreaped child; give the slot
                        // up so the loop and the stdout watchers can end.
                        let _ = c.kill();
                        exit_s[i] = Some(t0.elapsed().as_secs_f64());
                        error = Some(format!("wait for party {i}: {e}"));
                    }
                }
            }
            std::thread::sleep(EXIT_POLL);
        }
        let wall_s = exit_s.iter().flatten().fold(0.0f64, |a, &b| a.max(b));

        let mut parties = Vec::with_capacity(PARTIES);
        for (w, exit) in watchers.into_iter().zip(exit_s) {
            let mut times = w.join().map_err(|_| "stdout watcher panicked")?;
            times.exit_s = exit.unwrap_or(wall_s);
            if times.retries_timeouts.is_none() && error.is_none() {
                error = Some("a party printed no transport line".into());
            }
            parties.push(times);
        }
        Ok(PartyRun {
            wall_s,
            peak_rss_mb,
            parties,
            outputs,
            error,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ports_are_distinct_and_free() {
        let ports = reserve_ports(PARTIES).unwrap();
        assert_eq!(ports.len(), PARTIES);
        for (i, p) in ports.iter().enumerate() {
            assert!(*p != 0 && !ports[..i].contains(p));
        }
        let bound: Vec<_> = ports
            .iter()
            .map(|p| TcpListener::bind(("127.0.0.1", *p)).unwrap())
            .collect();
        assert_eq!(bound.len(), PARTIES);
    }

    #[test]
    fn stdout_lines_are_classified() {
        use Line::*;
        let cases = [
            (
                "party 1 of 3 listening on 127.0.0.1:9101 (run id 42)",
                Listening,
            ),
            ("party 1: all 3 parties connected", Connected),
            (
                "transport: 0 send retries, 0 receive timeouts",
                RetriesTimeouts(0),
            ),
            (
                "transport: 2 send retries, 1 receive timeouts",
                RetriesTimeouts(3),
            ),
            ("transport: garbage", Other),
            (
                "secure scan over 3 parties, 10000 variants (mode: default)",
                Other,
            ),
            ("party 1: resuming from block 4", Other),
            ("", Other),
        ];
        for (line, want) in cases {
            assert_eq!(parse_line(line), want, "{line}");
        }
    }

    #[test]
    fn stdout_events_get_increasing_timestamps() {
        let text = "party 0 of 3 listening on 127.0.0.1:1 (run id 42)\n\
                    party 0: all 3 parties connected\n\
                    transport: 0 send retries, 0 receive timeouts\n";
        let t = watch_stdout(text.as_bytes(), Instant::now());
        let (l, c) = (t.listening_s.unwrap(), t.connected_s.unwrap());
        assert!(0.0 <= l && l <= c);
        assert_eq!(t.retries_timeouts, Some(0));
    }

    #[test]
    fn own_rss_is_readable() {
        assert!(vm_hwm_mb(std::process::id()).unwrap() > 0.5);
    }
}
