//! `dash secure-scan` — the multi-party protocol over party directories.

use crate::args::Flags;
use crate::commands::{load_all_parties, ScanFlags};
use crate::error::CliError;
use dash_core::secure::secure_scan_traced_with;
use std::io::Write;
use std::path::PathBuf;

const USAGE: &str = "\
dash secure-scan — secure multi-party association scan

REQUIRED:
    --dir DIR       directory containing party0/, party1/, … each with
                    y.tsv / x.tsv / c.tsv

OPTIONS:
    --mode MODE     security mode: public | default | star | tree | max
                    [default: default]
                      public  : everything broadcast (baseline)
                      default : public K x K R factors, masked secure sums
                      star    : like default, but masked sums via an
                                aggregator (O(P*M) total traffic)
                      tree    : pairwise-tree R factors, masked secure sums
                      max     : aggregate-only R, Beaver dot products
    --out FILE      write results TSV here
    --seed S        protocol seed [default: 42]
    --audit BOOL    print the disclosure log (true/false) [default: true]

OBSERVABILITY:
    --trace-out FILE  write a dash-trace/1 JSON trace (per-party spans and
                      counters) to FILE after the run
    --metrics BOOL    print the per-party metrics summary (true/false)
                      [default: false]

BLOCKED PIPELINE (results are bit-identical for any block size):
    --block-size B  aggregate variants in blocks of B columns; peak summand
                    memory is O(K*B), and each block's secure round
                    overlaps the next block's local compute. 'off' means
                    one block of all M variants [default: 4096]
    --threads T     worker threads for per-block summand compute, >= 1
                    [default: 1]

TRANSPORT:
    --deadline-ms N  per-receive deadline in milliseconds [default: 60000]

FAULT INJECTION happens below the sockets, with `dash chaos` between two
`dash party` processes, or by killing a party process.";

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = Flags::parse(args, USAGE)?;
    let dir = PathBuf::from(flags.required("dir", USAGE)?);
    let scan = ScanFlags::parse(&flags)?;
    flags.reject_unknown(USAGE)?;

    let cfg = scan.config()?;

    let parties = load_all_parties(&dir)?;
    let trace = scan.trace(parties.len());
    let output = secure_scan_traced_with(&parties, &cfg, trace.clone())?;
    scan.report(out, &output, &trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn setup(tag: &str) -> std::path::PathBuf {
        let dir = tmp_dir(tag);
        write_party(&dir.join("party0"), &toy_party(25, 5, 2, 1));
        write_party(&dir.join("party1"), &toy_party(30, 5, 2, 2));
        dir
    }

    #[test]
    fn all_modes_run_and_agree() {
        let dir = setup("secure");
        let mut reference: Option<dash_core::model::ScanResult> = None;
        for mode in ["public", "default", "star", "tree", "max"] {
            let res_file = dir.join(format!("res_{mode}.tsv"));
            let mut buf = Vec::new();
            run(
                &argv(&[
                    "--dir",
                    dir.to_str().unwrap(),
                    "--mode",
                    mode,
                    "--out",
                    res_file.to_str().unwrap(),
                    "--audit",
                    "false",
                ]),
                &mut buf,
            )
            .unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.contains("secure scan over 2 parties"), "{mode}");
            let result = dash_gwas::io::read_scan_tsv(&res_file, 1).unwrap();
            if let Some(r) = &reference {
                for j in 0..r.len() {
                    assert!(
                        (r.beta[j] - result.beta[j]).abs() < 1e-5,
                        "{mode}: beta[{j}]"
                    );
                }
            } else {
                reference = Some(result);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_mode_reports_zero_disclosure() {
        let dir = setup("audit");
        let mut buf = Vec::new();
        run(
            &argv(&["--dir", dir.to_str().unwrap(), "--mode", "max"]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("per-party scalars disclosed: 0"));
        assert!(text.contains("disclosure log:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn removed_fault_and_retry_flags_are_unknown() {
        // Both commands refuse the message-level injector's and the
        // retry loop's flags by name, before touching any data or socket.
        let mut buf = Vec::new();
        let err = run(
            &argv(&["--dir", "no-such-dir", "--fault-drop", "0.1"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(
            err.to_string().starts_with("unknown flag --fault-drop"),
            "{err}"
        );
        let party = argv(&[
            "--id",
            "0",
            "--peers",
            "127.0.0.1:9,127.0.0.1:10",
            "--dir",
            "no-such-dir",
            "--retries",
            "3",
        ]);
        let err = crate::commands::party::run(&party, &mut buf).unwrap_err();
        assert!(
            err.to_string().starts_with("unknown flag --retries"),
            "{err}"
        );
    }

    #[test]
    fn block_size_reported_and_off_is_one_block() {
        let dir = setup("blocked");
        let mut blocked_buf = Vec::new();
        let blocked_res = dir.join("blocked.tsv");
        run(
            &argv(&[
                "--dir",
                dir.to_str().unwrap(),
                "--block-size",
                "2",
                "--threads",
                "2",
                "--audit",
                "false",
                "--out",
                blocked_res.to_str().unwrap(),
            ]),
            &mut blocked_buf,
        )
        .unwrap();
        let text = String::from_utf8(blocked_buf).unwrap();
        // 5 variants in blocks of 2 -> 3 block rounds.
        assert!(
            text.contains("blocked pipeline: 3 blocks of <= 2 variants"),
            "{text}"
        );

        let mut one_buf = Vec::new();
        let one_res = dir.join("one.tsv");
        run(
            &argv(&[
                "--dir",
                dir.to_str().unwrap(),
                "--block-size",
                "off",
                "--audit",
                "false",
                "--out",
                one_res.to_str().unwrap(),
            ]),
            &mut one_buf,
        )
        .unwrap();
        let one_text = String::from_utf8(one_buf).unwrap();
        assert!(
            one_text.contains("blocked pipeline: 1 blocks of <= 5 variants"),
            "{one_text}"
        );

        // Written results are bit-identical across block sizes.
        let a = std::fs::read_to_string(&blocked_res).unwrap();
        let b = std::fs::read_to_string(&one_res).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_block_size_and_threads_rejected() {
        let dir = setup("badblock");
        let mut buf = Vec::new();
        let err = run(
            &argv(&["--dir", dir.to_str().unwrap(), "--block-size", "0"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--block-size"));
        let err = run(
            &argv(&["--dir", dir.to_str().unwrap(), "--threads", "0"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--threads"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Sums every `"key": <int>` occurrence in a JSON text (the trace
    /// counters section has one per party).
    fn sum_json_ints(json: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\": ");
        json.match_indices(&pat)
            .map(|(i, _)| {
                json[i + pat.len()..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<u64>()
                    .unwrap()
            })
            .sum()
    }

    /// Acceptance criterion: the per-party byte totals in the emitted
    /// JSON trace must equal the `NetworkStats` totals the command
    /// itself reports — exactly, not approximately.
    #[test]
    fn trace_out_json_byte_totals_match_reported_stats() {
        let dir = setup("traceout");
        let trace_file = dir.join("trace.json");
        let mut buf = Vec::new();
        run(
            &argv(&[
                "--dir",
                dir.to_str().unwrap(),
                "--mode",
                "max",
                "--block-size",
                "2",
                "--audit",
                "false",
                "--metrics",
                "true",
                "--trace-out",
                trace_file.to_str().unwrap(),
            ]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        // "traffic: N bytes total, ..." is the command's own report of
        // NetworkStats::total_bytes().
        let reported: u64 = text
            .lines()
            .find(|l| l.starts_with("traffic:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(reported > 0);
        let json = std::fs::read_to_string(&trace_file).unwrap();
        assert!(json.contains("\"schema\": \"dash-trace/1\""), "{json}");
        assert!(json.contains("\"n_parties\": 2"), "{json}");
        assert_eq!(sum_json_ints(&json, "bytes_sent"), reported, "{json}");
        assert_eq!(sum_json_ints(&json, "bytes_received"), reported);
        assert!(json.contains("\"name\": \"scan\""), "span tree exported");
        assert!(json.contains("\"name\": \"block\""), "block spans exported");
        // --metrics prints the summary table; the trace path is echoed.
        assert!(text.contains("per-party counters"), "{text}");
        assert!(text.contains("trace written to"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Without the observability flags no trace file appears and the
    /// output is byte-identical to a plain run (the handle is disabled).
    #[test]
    fn trace_flags_off_by_default() {
        let dir = setup("notrace");
        let mut buf = Vec::new();
        run(
            &argv(&["--dir", dir.to_str().unwrap(), "--audit", "false"]),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("per-party counters"), "{text}");
        assert!(!text.contains("trace written to"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_mode_rejected() {
        let dir = setup("badmode");
        let mut buf = Vec::new();
        let err = run(
            &argv(&["--dir", dir.to_str().unwrap(), "--mode", "yolo"]),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.to_string().contains("--mode"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
