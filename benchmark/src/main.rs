//! `dash-benchmark`: measures the plaintext, in-process, loopback-TCP and
//! three-process scans end to end and layer by layer. See `README.md`.

mod adapter;
mod layers;
mod procs;
mod report;
mod run;
mod span;
mod spec;
mod stats;
mod workload;

use report::{Host, Metric, Ops, RunOutput};
use run::Options;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME --trace 0|1] [--seed S] [--seconds T]
                        [--smoke] [--aa]

    --workload NAME  run one workload (rdemo | widek | thin) once; without
                     it, run every workload, end to end and then traced
    --trace 0|1      with --workload: 0 reports the end-to-end metrics,
                     1 the per-layer metrics [default: 0]
    --seed S         seed of the generated inputs [default: 1]
    --seconds T      seconds one run measures, set-up excluded
                     [default: 20 with --workload, 40 without, 0.5 with --smoke]
    --smoke          tiny shapes: every path, three-process and checkpoint
                     runs included, in seconds
    --aa             run the whole set twice on this build and fail if an
                     end-to-end median moves by more than its bound or an
                     exact secure.* count moves at all
    --emit-spec      print BENCHMARK.json as the metric tables declare it";

struct Args {
    workload: Option<String>,
    traced: bool,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    aa: bool,
    emit_spec: bool,
    help: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        traced: false,
        seed: 1,
        seconds: None,
        smoke: false,
        aa: false,
        emit_spec: false,
        help: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed takes an integer, not {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, not {v}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], not {v}"));
                }
                args.seconds = Some(s);
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--emit-spec" => args.emit_spec = true,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.aa && args.workload.is_some() {
        return Err("--aa runs every workload; drop --workload".into());
    }
    Ok(args)
}

/// Prints a run's metrics by name with their units and checks that the
/// run reported exactly the metrics `BENCHMARK.json` declares for it.
fn print_run(r: &RunOutput) -> Result<(), String> {
    let kind = if r.traced { "per-layer" } else { "end-to-end" };
    println!(
        "== {} ({kind}): {} in-process and {} process repetitions per metric",
        r.workload, r.reps.0, r.reps.1
    );
    for m in &r.metrics {
        println!("{}", m.line());
    }
    println!(
        "operations: {} attempted, {} failed",
        r.ops.attempted, r.ops.failed
    );
    let declared: Vec<&str> = if r.traced {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
    if let Some(bad) = reported.iter().find(|n| !stats::valid_name(n)) {
        return Err(format!("metric name {bad:?} is not [A-Za-z0-9_.-]+"));
    }
    if declared != reported {
        return Err(format!(
            "{}: reported metrics differ from the declared ones:\n  declared {declared:?}\n  reported {reported:?}",
            r.workload
        ));
    }
    // A failed operation leaves gaps; otherwise every number must exist.
    if r.ops.failed == 0 {
        if let Some(m) = r.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("{}: {} was not measured", r.workload, m.name));
        }
    }
    Ok(())
}

fn write_out(bench_dir: &Path, file: &str, text: &str) -> Result<(), String> {
    let dir = bench_dir.join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// One end-to-end run and one traced run of every workload.
fn run_set(set: &[workload::Workload], opts: &Options) -> Result<Vec<RunOutput>, String> {
    let mut runs = Vec::new();
    for w in set {
        for traced in [false, true] {
            let r = run::run_workload(w, traced, opts)?;
            print_run(&r)?;
            runs.push(r);
        }
    }
    Ok(runs)
}

/// Compares two sets of runs of the same build; `Err` lists what moved.
fn compare_aa(a: &[RunOutput], b: &[RunOutput]) -> Result<(), String> {
    let mut moved = Vec::new();
    println!("== A/A: second set against first");
    for (ra, rb) in a.iter().zip(b) {
        if ra.traced {
            for name in spec::EXACT_COUNTS {
                let (va, vb) = (
                    ra.metric(name).map(|m| m.value),
                    rb.metric(name).map(|m| m.value),
                );
                if va != vb || va.is_none() {
                    moved.push(format!("{} {name}: {va:?} then {vb:?}", ra.workload));
                }
            }
            continue;
        }
        for e in &spec::END_TO_END {
            let (Some(ma), Some(mb)) = (ra.metric(e.name), rb.metric(e.name)) else {
                moved.push(format!("{} {}: missing", ra.workload, e.name));
                continue;
            };
            let diff = (mb.value - ma.value).abs() / ma.value;
            println!(
                "{} {}: {} then {} {} ({:+.2}%, bound {:.0}%)",
                ra.workload,
                e.name,
                ma.value,
                mb.value,
                e.unit,
                100.0 * (mb.value - ma.value) / ma.value,
                100.0 * e.bound
            );
            if diff.is_nan() || diff > e.bound {
                moved.push(format!(
                    "{} {}: moved {:.1}%",
                    ra.workload,
                    e.name,
                    100.0 * diff
                ));
            }
        }
    }
    if moved.is_empty() {
        Ok(())
    } else {
        Err(format!("A/A check failed:\n  {}", moved.join("\n  ")))
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.help {
        println!("{USAGE}");
        return Ok(true);
    }
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    let started = Instant::now();
    let bench_dir = std::env::var_os("DASH_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let dash = std::env::var_os("DASH_BIN")
        .map_or_else(|| bench_dir.join("../target/release/dash"), PathBuf::from);
    if !dash.is_file() {
        return Err(format!(
            "no dash executable at {} (benchmark/run.sh builds it and sets DASH_BIN)",
            dash.display()
        ));
    }
    let set = if args.smoke {
        &workload::SMOKE
    } else {
        &workload::FULL
    };
    let default_seconds = match (args.smoke, &args.workload) {
        (true, _) => 0.5,
        (false, Some(_)) => spec::RUN_SECONDS as f64,
        (false, None) => 40.0,
    };
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        dash,
        bench_dir: bench_dir.clone(),
        smoke: args.smoke,
    };
    let host = Host::probe(&bench_dir.join(".."));
    let record = |runs: &[RunOutput]| {
        report::record_json(
            &host,
            opts.seed,
            opts.seconds,
            started.elapsed().as_secs_f64(),
            runs,
        )
    };

    let runs = match &args.workload {
        Some(name) => {
            let w = set
                .iter()
                .find(|w| w.name == name)
                .ok_or(format!("unknown workload {name}\n{USAGE}"))?;
            let r = run::run_workload(w, args.traced, &opts)?;
            print_run(&r)?;
            let tag = format!("{}-trace{}", w.name, u8::from(args.traced));
            write_out(
                &bench_dir,
                &format!("record-{tag}.json"),
                &record(std::slice::from_ref(&r)),
            )?;
            vec![r]
        }
        None => {
            let first = run_set(set, &opts)?;
            write_out(&bench_dir, "record.json", &record(&first))?;
            first
        }
    };
    for r in runs.iter().filter(|r| r.traced) {
        write_out(
            &bench_dir,
            &format!("spans-{}.json", r.workload),
            &report::spans_json(&r.spans),
        )?;
    }
    // `runs` are reported; `ops` also counts the second set of `--aa`.
    let mut ops = Ops::default();
    let mut verdict = Ok(());
    let mut count = |set: &[RunOutput]| {
        for r in set {
            ops.attempted += r.ops.attempted;
            ops.failed += r.ops.failed;
        }
    };
    count(&runs);
    if args.aa {
        let second = run_set(set, &opts)?;
        write_out(&bench_dir, "record-aa.json", &record(&second))?;
        count(&second);
        verdict = compare_aa(&runs, &second);
    }
    if let Err(e) = &verdict {
        eprintln!("{e}");
    }
    let correct = ops.failed == 0 && verdict.is_ok();
    println!(
        "total: {} operations attempted, {} failed, {:.1} s",
        ops.attempted,
        ops.failed,
        started.elapsed().as_secs_f64()
    );
    // One workload: the contract's metric names. Several: prefixed.
    let single = args.workload.is_some();
    let named: Vec<Metric> = runs
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| Metric {
                name: if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", r.workload, m.name)
                },
                ..m.clone()
            })
        })
        .collect();
    println!("{}", report::result_line(correct, &ops, &named));
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dash-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
