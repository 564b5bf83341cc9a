//! Metrics, operation counts, and the JSON the benchmark prints and writes.

use crate::span::{self_times_ns, Span};
use crate::stats::{median, percentile, tail_percentile};
use std::fmt::Write as _;

/// How the samples of a timing become its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The middle sample.
    Median,
    /// The fastest sample. Neighbours on the shared host, fsync stalls and
    /// cold memory only ever add time, so the fastest repetition tracks
    /// the code and the median tracks the neighbours (`plain_scan_s` over
    /// ten runs: spread 5–8 % against 11–24 %).
    Fastest,
    /// Not a summary of samples: a count, or a ratio of other metrics.
    Single,
}

impl Stat {
    fn as_str(self) -> &'static str {
        match self {
            Stat::Median => "median",
            Stat::Fastest => "fastest",
            Stat::Single => "single",
        }
    }
}

/// One reported number. Timings keep their samples and are always
/// printed with the median and the highest percentile that still has ten
/// samples beyond it, whichever statistic is the reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub stat: Stat,
    /// In the order they were taken; empty for [`Stat::Single`].
    pub samples: Vec<f64>,
}

impl Metric {
    /// Summarises timing samples.
    pub fn from_samples(name: &str, unit: &'static str, stat: Stat, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: match stat {
                Stat::Fastest => samples.iter().copied().fold(f64::NAN, f64::min),
                _ => median(samples),
            },
            stat,
            samples: samples.to_vec(),
        }
    }

    /// A count, a ratio of medians, or another single value.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            stat: Stat::Single,
            samples: Vec::new(),
        }
    }

    /// `(percentile, value at it)`: the highest that leaves ten beyond.
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.samples.len()).map(|p| (p, percentile(&self.samples, p)))
    }

    /// `name = value unit (fastest of 18, median …, p75 …)`.
    pub fn line(&self) -> String {
        let mut s = format!("{} = {} {}", self.name, self.value, self.unit);
        if self.stat != Stat::Single {
            write!(s, " ({} of {}", self.stat.as_str(), self.samples.len()).expect("String");
            if self.stat != Stat::Median {
                write!(s, ", median {}", median(&self.samples)).expect("String");
            }
            if let Some((p, v)) = self.tail() {
                write!(s, ", p{p} {v}").expect("String");
            }
            s.push(')');
        }
        s
    }
}

/// Operations attempted and failed. A failed operation is an error, a
/// correctness mismatch, or any retry or timeout.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    /// Counts one operation; `Err` makes it a failed one.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
            // The first few say what broke; the count says how often.
            if self.errors.len() < 16 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub workload: &'static str,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub ops: Ops,
    /// Timed repetitions of the in-process and of the process metrics.
    pub reps: (usize, usize),
    pub spans: Vec<Span>,
}

impl RunOutput {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

// ---- JSON -----------------------------------------------------------------

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `x`; `null` when not finite.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The contract's result object: the last line of standard output.
pub fn result_line(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

/// Identity of the machine and the code a record was measured on.
pub struct Host {
    pub git_rev: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub llc_kb: u64,
    pub kernel: String,
}

/// Size in KiB of the largest cache level of cpu0 (0 when sysfs hides it).
pub fn llc_kb() -> u64 {
    (0..8)
        .filter_map(|i| {
            let raw = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let raw = raw.trim();
            let (num, mult) = match raw.as_bytes().last()? {
                b'K' => (&raw[..raw.len() - 1], 1),
                b'M' => (&raw[..raw.len() - 1], 1024),
                _ => (raw, 1),
            };
            num.parse::<u64>().ok().map(|v| v * mult)
        })
        .max()
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Host {
    pub fn probe(repo_root: &std::path::Path) -> Host {
        let git_rev = std::process::Command::new("git")
            .arg("-C")
            .arg(repo_root)
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Host {
            git_rev,
            cpu_model,
            nproc: nproc(),
            llc_kb: llc_kb(),
            kernel,
        }
    }
}

/// The machine-readable record of a set of runs.
pub fn record_json(
    host: &Host,
    seed: u64,
    seconds: f64,
    total_s: f64,
    runs: &[RunOutput],
) -> String {
    let mut s = String::from("{\n  \"schema\": \"dash-benchmark/1\",\n");
    writeln!(s, "  \"git_rev\": {},", json_str(&host.git_rev)).expect("String");
    writeln!(
        s,
        "  \"host\": {{\"cpu_model\": {}, \"nproc\": {}, \"llc_kb\": {}, \"kernel\": {}}},",
        json_str(&host.cpu_model),
        host.nproc,
        host.llc_kb,
        json_str(&host.kernel)
    )
    .expect("String");
    writeln!(
        s,
        "  \"seed\": {seed},\n  \"seconds_per_run\": {},",
        json_num(seconds)
    )
    .expect("String");
    writeln!(s, "  \"total_runtime_s\": {},", json_num(total_s)).expect("String");
    s += "  \"runs\": [\n";
    let runs: Vec<String> = runs
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|m| {
                    let mut row = format!(
                        "        {{\"name\": {}, \"unit\": {}, \"value\": {}, \"stat\": {}",
                        json_str(&m.name),
                        json_str(m.unit),
                        json_num(m.value),
                        json_str(m.stat.as_str())
                    );
                    if m.stat != Stat::Single {
                        let samples: Vec<String> = m.samples.iter().map(|&v| json_num(v)).collect();
                        write!(row, ", \"median\": {}", json_num(median(&m.samples)))
                            .expect("String");
                        if let Some((p, v)) = m.tail() {
                            write!(row, ", \"p{p}\": {}", json_num(v)).expect("String");
                        }
                        write!(row, ", \"samples\": [{}]", samples.join(", ")).expect("String");
                    }
                    row + "}"
                })
                .collect();
            let errors: Vec<String> = r.ops.errors.iter().map(|e| json_str(e)).collect();
            format!(
                "    {{\"workload\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \
                 \"errors\": [{}], \"inprocess_reps\": {}, \"process_reps\": {},\n      \
                 \"metrics\": [\n{}\n      ]}}",
                json_str(r.workload),
                r.traced,
                r.ops.attempted,
                r.ops.failed,
                errors.join(", "),
                r.reps.0,
                r.reps.1,
                metrics.join(",\n")
            )
        })
        .collect();
    s += &runs.join(",\n");
    s += "\n  ]\n}\n";
    s
}

/// The spans of a traced run, one JSON object per span, with self times.
pub fn spans_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"workload\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&s.name),
                json_str(&s.workload),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(json_str("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(json_num(0.25), "0.25");
        assert_eq!(json_num(1e-7), "0.0000001");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut ops = Ops::default();
        ops.record("scan", Ok(()));
        let m = Metric::from_samples("plain_scan_s", "s", Stat::Median, &[0.5, 0.25, 0.75]);
        assert_eq!(
            result_line(true, &ops, &[m]),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"plain_scan_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_lines_name_the_tail() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let m = Metric::from_samples("x_s", "s", Stat::Median, &v);
        assert_eq!(m.line(), "x_s = 20.5 s (median of 40, p75 30)");
        let m = Metric::from_samples("x_s", "s", Stat::Fastest, &v[..5]);
        assert_eq!(m.line(), "x_s = 1 s (fastest of 5, median 3)");
        assert_eq!(Metric::single("c", "count", 3.0).line(), "c = 3 count");
        assert!(Metric::from_samples("x_s", "s", Stat::Fastest, &[])
            .value
            .is_nan());
    }
}
