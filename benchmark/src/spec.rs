//! The benchmark's declared metrics: the table `BENCHMARK.json` is
//! generated from and every run is checked against.

use crate::report::{json_str, Stat};
use crate::workload::FULL;

/// How long one measured run lasts, as `BENCHMARK.json` declares it.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Which statistic of a run's repetitions is the reported value.
    pub stat: Stat,
}

const fn e2e(name: &'static str, unit: &'static str, stat: Stat, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        stat,
    }
}

/// The bounds are what this host's noise allows, not what one would wish:
/// over ten runs per workload the spread (quartile distance over median)
/// of these values was 3–12 % in a quiet hour and 5–25 % in a busy one,
/// and a bound has to stay clear of it.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("setup_s", "s", Stat::Single, 0.25),
    e2e("plain_scan_s", "s", Stat::Fastest, 0.25),
    e2e("secure_scan_s", "s", Stat::Fastest, 0.25),
    e2e("secure_max_scan_s", "s", Stat::Fastest, 0.25),
    e2e("tcp_scan_s", "s", Stat::Median, 0.25),
    e2e("party_wall_s", "s", Stat::Fastest, 0.25),
    e2e("party_peak_rss_mb", "MB", Stat::Median, 0.10),
];

/// A metric of one layer; layer names are module names. Unbounded.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 59] = [
    hi("probe.stream_read_gbps", "GB/s"),
    hi("probe.stream_buffer_mb", "MB"),
    hi("probe.llc_mb", "MB"),
    hi("probe.loopback_mb_per_s", "MB/s"),
    lo("probe.fsync_ms", "ms"),
    hi("probe.nproc", "count"),
    lo("linalg.qr_s", "s"),
    lo("suffstats.local_s", "s"),
    lo("suffstats.block_s", "s"),
    hi("suffstats.local_bw_frac", "ratio"),
    hi("suffstats.block_bw_frac", "ratio"),
    lo("suffstats.finalize_s", "s"),
    lo("suffstats.finalize_ns_per_variant", "ns"),
    lo("stats.t_pvalue_ns", "ns"),
    lo("scan.parallel_s", "s"),
    hi("scan.parallel_speedup", "ratio"),
    lo("fixed.encode_ns_per_word", "ns"),
    lo("fixed.decode_ns_per_word", "ns"),
    lo("fixed.encode_field_ns_per_word", "ns"),
    lo("prg.mask_ns_per_word", "ns"),
    lo("dealer.deal_inners_s", "s"),
    lo("masked_sum.mpsc_round_us", "us"),
    lo("masked_sum.tcp_round_us", "us"),
    lo("net.roundtrip_us", "us"),
    lo("tcp.roundtrip_us", "us"),
    hi("tcp.bulk_mb_per_s", "MB/s"),
    hi("tcp.bulk_frac_of_loopback", "ratio"),
    lo("tcp.connect_s", "s"),
    lo("tcp.supervision_cost_s", "s"),
    lo("secure.bytes_total", "bytes"),
    lo("secure.messages_total", "count"),
    lo("secure.block_rounds", "count"),
    lo("secure.bytes_per_variant", "bytes"),
    lo("secure.scalars_disclosed", "count"),
    lo("secure.cpu_s", "s"),
    lo("secure.cpu_over_wall", "ratio"),
    lo("secure.over_plain", "ratio"),
    lo("secure.max_over_default", "ratio"),
    lo("secure.span.rfactor_s", "s"),
    lo("secure.span.aggregate_s", "s"),
    lo("secure.span.block_s", "s"),
    lo("secure.span.round_secure_s", "s"),
    lo("obs.trace_overhead_frac", "ratio"),
    lo("checkpoint.save_ms", "ms"),
    lo("checkpoint.bytes", "bytes"),
    lo("checkpoint.saves", "count"),
    lo("checkpoint.party_wall_s", "s"),
    lo("checkpoint.overhead_s", "s"),
    lo("io.read_x_s", "s"),
    hi("io.read_mb_per_s", "MB/s"),
    lo("io.write_scan_s", "s"),
    lo("cli.party.load_s", "s"),
    lo("cli.party.connect_s", "s"),
    lo("cli.party.protocol_s", "s"),
    lo("cli.party.load_frac", "ratio"),
    lo("cli.party.cold_wall_s", "s"),
    hi("trace.plain.kernel_frac", "ratio"),
    hi("trace.secure_party.kernel_frac", "ratio"),
    lo("trace.secure_party.share_frac", "ratio"),
];

/// The `secure.*` metrics that are exact counts and must repeat
/// bit-for-bit between runs of the same code.
pub const EXACT_COUNTS: [&str; 5] = [
    "secure.bytes_total",
    "secure.messages_total",
    "secure.block_rounds",
    "secure.bytes_per_variant",
    "secure.scalars_disclosed",
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let section = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = FULL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let metric = |name: &str, unit: &str, better: Better| {
        format!(
            "\"name\": {}, \"unit\": {}, \"better\": {}",
            json_str(name),
            json_str(unit),
            json_str(better.as_str())
        )
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{{}, \"bound\": {}}}",
                metric(m.name, m.unit, m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| format!("{{{}}}", metric(m.name, m.unit, m.better)))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        section(workloads),
        section(end_to_end),
        section(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
        for c in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == c), "{c}");
        }
    }

    /// `BENCHMARK.json` at the root is this table, byte for byte (absent
    /// only when the package is tested outside a checkout of the repo).
    #[test]
    fn benchmark_json_on_disk_is_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(on_disk) = std::fs::read_to_string(path) {
            assert_eq!(
                on_disk,
                benchmark_json(),
                "regenerate with: benchmark/run.sh --emit-spec > BENCHMARK.json"
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
