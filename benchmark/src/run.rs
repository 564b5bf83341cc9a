//! One run of one workload: set-up, the untraced end-to-end loops with
//! their correctness gate, and (traced runs only) the layer measurements.

use crate::adapter::{self, Mode, ScanResult, SecureRun, TraceHandle};
use crate::layers;
use crate::procs::{self, PartyRun};
use crate::report::{Metric, Ops, RunOutput, Stat};
use crate::span::Tracer;
use crate::spec;
use crate::stats::median;
use crate::workload::{prepare, Dataset, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// What a run needs besides the workload.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long the run measures, set-up excluded.
    pub seconds: f64,
    /// The `dash` executable.
    pub dash: PathBuf,
    /// `benchmark/`: data and records go below it.
    pub bench_dir: PathBuf,
    /// Fewest repetitions everywhere: a smoke run checks paths, not times.
    pub smoke: bool,
}

/// Largest `max_rel_diff` against the pooled plaintext scan that still
/// counts as the same answer.
const REL_TOL: f64 = 1e-6;

/// Times the inputs are generated and written; `setup_s` takes the median.
const SETUP_REPS: usize = 3;

/// Untimed in-process repetitions before the first timed one, share of
/// `--seconds` and fewest repetitions of the two untraced loops.
struct Plan {
    warm_ups: usize,
    inproc_share: f64,
    inproc_min: usize,
    proc_share: f64,
    proc_min: usize,
}

const END_TO_END_PLAN: Plan = Plan {
    warm_ups: 2,
    inproc_share: 0.6,
    inproc_min: 5,
    proc_share: 0.4,
    proc_min: 3,
};

/// A traced run also has the layer measurements to fit in.
const TRACED_PLAN: Plan = Plan {
    warm_ups: 2,
    inproc_share: 0.3,
    inproc_min: 3,
    proc_share: 0.2,
    proc_min: 2,
};

const SMOKE_PLAN: Plan = Plan {
    warm_ups: 1,
    inproc_share: 0.3,
    inproc_min: 2,
    proc_share: 0.2,
    proc_min: 1,
};

/// The in-process scans. The first four are end-to-end metrics; the rest
/// run in traced runs only, interleaved with them, and feed layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scan {
    Plain,
    Secure,
    SecureMax,
    Tcp,
    TcpUnsupervised,
    SecureTraced,
    TcpTraced,
}

const END_TO_END_SCANS: [Scan; 4] = [Scan::Plain, Scan::Secure, Scan::SecureMax, Scan::Tcp];
const TRACED_SCANS: [Scan; 7] = [
    Scan::Plain,
    Scan::Secure,
    Scan::SecureMax,
    Scan::Tcp,
    Scan::TcpUnsupervised,
    Scan::SecureTraced,
    Scan::TcpTraced,
];

impl Scan {
    fn key(self) -> &'static str {
        match self {
            Scan::Plain => "plain_scan_s",
            Scan::Secure => "secure_scan_s",
            Scan::SecureMax => "secure_max_scan_s",
            Scan::Tcp => "tcp_scan_s",
            Scan::TcpUnsupervised => "tcp_unsupervised_s",
            Scan::SecureTraced => "secure_traced_s",
            Scan::TcpTraced => "tcp_traced_s",
        }
    }
}

enum Outcome {
    Plain(ScanResult),
    Secure(SecureRun),
}

/// Removes the run's generated data when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Gone only once the last concurrent run has cleaned up.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// CPU seconds (user + system, all threads) this process has used, from
/// `/proc/self/stat` at the kernel's 100 ticks per second.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

pub(crate) struct Bench<'a> {
    pub w: &'a Workload,
    pub opts: &'a Options,
    pub dir: PathBuf,
    pub data: Dataset,
    /// `associate(pooled)`: what every other result is compared to.
    reference: ScanResult,
    /// First default-mode and first max-mode secure run; later ones must
    /// repeat their results and traffic bit for bit.
    pub secure_ref: Option<SecureRun>,
    max_ref: Option<SecureRun>,
    /// `write_scan_tsv` of the in-process result: what each party writes.
    expected_tsv: Vec<u8>,
    pub ops: Ops,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Spans and counters of the latest traced in-process and TCP scans.
    pub traces: [Option<TraceHandle>; 2],
    /// CPU and wall seconds summed over the timed default-mode scans.
    pub secure_cpu_wall: (f64, f64),
    /// A real final checkpoint, loaded from a checkpointed party run.
    pub checkpoint: Option<(adapter::Checkpoint, u64)>,
}

impl Bench<'_> {
    fn push(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// The timed samples recorded under `key`, in order.
    pub fn samples_of(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], |v| v)
    }

    pub fn median(&self, key: &str) -> f64 {
        median(self.samples_of(key))
    }

    fn check_secure(&mut self, kind: Scan, run: SecureRun) -> Result<(), String> {
        if run.retries_timeouts != 0 {
            return Err(format!("{} retries/timeouts", run.retries_timeouts));
        }
        let d = adapter::rel_diff(&run.result, &self.reference);
        if d.is_nan() || d > REL_TOL {
            return Err(format!("differs from the pooled scan by {d:e}"));
        }
        let slot = if kind == Scan::SecureMax {
            &mut self.max_ref
        } else {
            &mut self.secure_ref
        };
        match slot {
            None => *slot = Some(run),
            Some(first) => {
                if !adapter::same_bits(&first.result, &run.result) {
                    return Err("result is not bit-identical to the in-process run".into());
                }
                if (first.bytes_total, first.messages_total)
                    != (run.bytes_total, run.messages_total)
                {
                    return Err(format!(
                        "traffic {} B / {} msgs, in-process run had {} B / {} msgs",
                        run.bytes_total,
                        run.messages_total,
                        first.bytes_total,
                        first.messages_total
                    ));
                }
            }
        }
        Ok(())
    }

    /// Runs one in-process scan, checks its output, and records its wall
    /// time when `timed`.
    fn scan(&mut self, kind: Scan, timed: bool) {
        let (parties, b) = (&self.data.parties, self.w.block_size);
        let off = TraceHandle::disabled;
        let on = || TraceHandle::enabled(parties.len());
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let mut trace = None;
        let outcome = match kind {
            Scan::Plain => adapter::plain_scan(&self.data.pooled).map(Outcome::Plain),
            Scan::Secure => {
                adapter::secure_scan(parties, Mode::Default, b, off()).map(Outcome::Secure)
            }
            Scan::SecureMax => {
                adapter::secure_scan(parties, Mode::Max, b, off()).map(Outcome::Secure)
            }
            Scan::Tcp => adapter::tcp_scan_supervised(parties, b, off()).map(Outcome::Secure),
            Scan::TcpUnsupervised => {
                adapter::tcp_scan_unsupervised(parties, b, off()).map(Outcome::Secure)
            }
            Scan::SecureTraced => {
                let h = trace.insert((0, on())).1.clone();
                adapter::secure_scan(parties, Mode::Default, b, h).map(Outcome::Secure)
            }
            Scan::TcpTraced => {
                let h = trace.insert((1, on())).1.clone();
                adapter::tcp_scan_supervised(parties, b, h).map(Outcome::Secure)
            }
        };
        let wall = t.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu0;
        let checked = outcome.and_then(|o| match o {
            Outcome::Plain(res) if adapter::same_bits(&res, &self.reference) => Ok(()),
            Outcome::Plain(_) => Err("plaintext scan did not repeat its result".into()),
            Outcome::Secure(run) => self.check_secure(kind, run),
        });
        let ok = checked.is_ok();
        self.ops.record(kind.key(), checked);
        if let Some((slot, h)) = trace {
            self.traces[slot] = Some(h);
        }
        if timed && ok {
            self.push(kind.key(), wall);
            if kind == Scan::Secure {
                self.secure_cpu_wall.0 += cpu;
                self.secure_cpu_wall.1 += wall;
            }
        }
    }

    fn check_party(&self, run: &PartyRun) -> Result<(), String> {
        if let Some(e) = &run.error {
            return Err(e.clone());
        }
        let rt: u64 = run.parties.iter().filter_map(|p| p.retries_timeouts).sum();
        if rt != 0 {
            return Err(format!("{rt} retries/timeouts"));
        }
        for (i, path) in run.outputs.iter().enumerate() {
            let got = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            if got != self.expected_tsv {
                return Err(format!(
                    "party {i}'s TSV differs from write_scan_tsv of the in-process result"
                ));
            }
        }
        Ok(())
    }

    /// Runs the three `dash party` processes once, checks their TSVs and
    /// records wall time, peak RSS and phase times when `timed`.
    fn party(&mut self, ckpt: bool, timed: bool) -> Option<PartyRun> {
        let out_dir = self.dir.join("out");
        let ckpt_dir = self.dir.join("ckpt");
        // Start from no outputs and no checkpoints, so nothing stale can
        // pass the check or shorten a save.
        let _ = std::fs::remove_dir_all(&out_dir);
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let made = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::create_dir_all(&ckpt_dir))
            .map_err(|e| format!("create {}: {e}", self.dir.display()));
        let key = if ckpt {
            "checkpoint.party_wall_s"
        } else {
            "party_wall_s"
        };
        let run = made.and_then(|()| {
            procs::run_parties(
                &self.opts.dash,
                &self.dir,
                &out_dir,
                self.w.block_size,
                ckpt.then_some(ckpt_dir.as_path()),
            )
        });
        let checked = run
            .as_ref()
            .map_err(String::clone)
            .and_then(|r| self.check_party(r));
        let ok = checked.is_ok();
        self.ops.record(key, checked);
        let run = run.ok()?;
        if ckpt && ok && self.checkpoint.is_none() {
            let path = adapter::checkpoint_path(&ckpt_dir, 0);
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            self.checkpoint = adapter::checkpoint_load(&path).ok().map(|c| (c, bytes));
        }
        if timed && ok {
            self.push(key, run.wall_s);
            if !ckpt {
                self.push("party_peak_rss_mb", run.peak_rss_mb);
                if let Some((load, connect, protocol)) = run.phases_s() {
                    self.push("cli.party.load_s", load);
                    self.push("cli.party.connect_s", connect);
                    self.push("cli.party.protocol_s", protocol);
                }
            }
        }
        Some(run)
    }
}

/// Repeats `round` until it has run `min` times and `budget_s` is spent.
fn repeat(budget_s: f64, min: usize, mut round: impl FnMut()) -> usize {
    let t = Instant::now();
    let mut n = 0;
    while n < min || t.elapsed().as_secs_f64() < budget_s {
        round();
        n += 1;
    }
    n
}

/// Runs `w` once: an end-to-end run reports the `end_to_end` metrics of
/// `BENCHMARK.json`, a traced run the `per_layer` ones.
pub fn run_workload(w: &Workload, traced: bool, opts: &Options) -> Result<RunOutput, String> {
    let started = Instant::now();
    let dir = opts.bench_dir.join("data").join(format!(
        "{}-s{}-p{}",
        w.name,
        opts.seed,
        std::process::id()
    ));
    let _scratch = Scratch(dir.clone());

    // Set-up, part one: the inputs, made several times so that one slow
    // write does not decide `setup_s`.
    let mut prep_s = Vec::with_capacity(SETUP_REPS);
    let mut data = None;
    for _ in 0..SETUP_REPS {
        drop(data.take());
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        data = Some(prepare(w, opts.seed, &dir)?);
        prep_s.push(t.elapsed().as_secs_f64());
        eprintln!(
            "[{}] inputs generated and written in {:.2} s",
            w.name,
            prep_s[prep_s.len() - 1]
        );
    }
    let data = data.ok_or("no set-up repetition ran")?;

    // Part two: references for the correctness gate, then warm-ups.
    let reference = adapter::plain_scan(&data.pooled)?;
    let mut b = Bench {
        w,
        opts,
        dir: dir.clone(),
        data,
        reference,
        secure_ref: None,
        max_ref: None,
        expected_tsv: Vec::new(),
        ops: Ops::default(),
        samples: BTreeMap::new(),
        traces: [None, None],
        secure_cpu_wall: (0.0, 0.0),
        checkpoint: None,
    };
    let scans: &[Scan] = if traced {
        &TRACED_SCANS
    } else {
        &END_TO_END_SCANS
    };
    let plan = match (opts.smoke, traced) {
        (true, _) => &SMOKE_PLAN,
        (false, true) => &TRACED_PLAN,
        (false, false) => &END_TO_END_PLAN,
    };
    for _ in 0..plan.warm_ups {
        for &s in scans {
            b.scan(s, false);
        }
    }
    let secure_result = &b
        .secure_ref
        .as_ref()
        .ok_or("the first secure scan failed")?
        .result;
    let expected = dir.join("expected.tsv");
    adapter::write_scan_tsv(&expected, secure_result)?;
    b.expected_tsv = std::fs::read(&expected).map_err(|e| format!("read expected.tsv: {e}"))?;
    // The first process run pays for whatever is cold: reported apart.
    eprintln!(
        "[{}] in-process warm-ups done at {:.2} s",
        w.name,
        started.elapsed().as_secs_f64()
    );
    let cold = b
        .party(false, false)
        .ok_or("the first dash party run failed")?;
    if traced {
        b.party(true, false);
    }
    eprintln!(
        "[{}] set-up done at {:.2} s",
        w.name,
        started.elapsed().as_secs_f64()
    );
    // Everything up to here, with the median preparation in place of the
    // `SETUP_REPS` that ran.
    let setup_s = started.elapsed().as_secs_f64() - prep_s.iter().sum::<f64>() + median(&prep_s);

    // The untraced loops. The process loop goes first, straight after the
    // cold process runs: the host takes back memory that stays free for a
    // few seconds, and children that start later pay to fault it in again.
    // Each round runs every metric once, so drift of the host during the
    // run reaches all of them alike. Only traced runs time the run under
    // `--checkpoint-dir`: it is a layer metric.
    let proc_reps = repeat(opts.seconds * plan.proc_share, plan.proc_min, || {
        b.party(false, true);
        if traced {
            b.party(true, true);
        }
    });
    let inproc_reps = repeat(opts.seconds * plan.inproc_share, plan.inproc_min, || {
        for &s in scans {
            b.scan(s, true);
        }
    });

    let mut tracer = Tracer::new(w.name);
    let metrics = if traced {
        let layer_s = opts.seconds * (1.0 - plan.inproc_share - plan.proc_share);
        layers::measure(&b, &mut tracer, layer_s, cold.wall_s)?
    } else {
        spec::END_TO_END
            .iter()
            .map(|e| match e.stat {
                // Only `setup_s` is not a summary of repetitions.
                Stat::Single => Metric::single(e.name, e.unit, setup_s),
                stat => Metric::from_samples(e.name, e.unit, stat, b.samples_of(e.name)),
            })
            .collect()
    };
    Ok(RunOutput {
        workload: w.name,
        traced,
        metrics,
        ops: b.ops,
        reps: (inproc_reps, proc_reps),
        spans: tracer.spans().to_vec(),
    })
}
