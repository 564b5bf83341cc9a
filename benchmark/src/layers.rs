//! Per-layer measurements of a traced run. Every layer is measured from
//! outside, by timing calls into its public functions (through
//! `adapter.rs`); each call is wrapped in a benchmark-side span.

use crate::adapter;
use crate::report::{nproc, Metric, Stat};
use crate::run::Bench;
use crate::span::{self_times_ns, Span, Tracer};
use crate::stats::median;
use crate::workload::{party_dir, PARTIES};
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

/// Microbenchmarks that share the layer budget evenly.
const SLICES: f64 = 20.0;
/// Fewest and most calls one microbenchmark makes.
const MIN_CALLS: usize = 3;
const MAX_CALLS: usize = 200;

/// The metrics measured so far, the tracer their calls are recorded in,
/// and the time one microbenchmark may take.
struct Sheet<'t> {
    tracer: &'t mut Tracer,
    slice_s: f64,
    out: Vec<Metric>,
}

impl Sheet<'_> {
    /// Calls `f` under a span called `span` until the slice is spent (at
    /// least `min` times); returns each call's seconds.
    fn calls<T>(
        &mut self,
        span: &str,
        min: usize,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<Vec<f64>, String> {
        let t = Instant::now();
        let mut secs = Vec::new();
        while secs.len() < min
            || (t.elapsed().as_secs_f64() < self.slice_s && secs.len() < MAX_CALLS)
        {
            let (out, s) = self.tracer.span(span, |_| f());
            black_box(out?);
            secs.push(s);
        }
        Ok(secs)
    }

    /// Reports `samples × scale` as `metric`; returns the median.
    fn samples(&mut self, metric: &str, unit: &'static str, scale: f64, samples: &[f64]) -> f64 {
        let scaled: Vec<f64> = samples.iter().map(|v| v * scale).collect();
        self.out
            .push(Metric::from_samples(metric, unit, Stat::Median, &scaled));
        median(&scaled)
    }

    /// [`Sheet::calls`] reported as `metric`: seconds per call × `scale`.
    fn time<T>(
        &mut self,
        span: &str,
        metric: &str,
        unit: &'static str,
        scale: f64,
        f: impl FnMut() -> Result<T, String>,
    ) -> Result<f64, String> {
        let secs = self.calls(span, MIN_CALLS, f)?;
        Ok(self.samples(metric, unit, scale, &secs))
    }

    fn single(&mut self, metric: &str, unit: &'static str, value: f64) {
        self.out.push(Metric::single(metric, unit, value));
    }
}

/// Streams `buf` once: an integer sum the compiler vectorises, so the
/// loop runs at the speed memory delivers the data.
fn stream_sum(buf: &[f64]) -> u64 {
    buf.iter()
        .fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()))
}

/// Words `probe.stream_read` sums: rdemo's 4500 × 10000 X (360 MB).
const STREAM_WORDS: usize = 45_000_000;

const MIB: usize = 1 << 20;
/// Bytes one loopback probe and one `tcp.bulk` transfer move.
const BULK_MIB: usize = 64;

/// Raw loopback `TcpStream` throughput with 1 MiB writes, in MB/s.
fn loopback_mb_per_s() -> Result<f64, String> {
    let e = |e: std::io::Error| format!("loopback probe: {e}");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(e)?;
    let addr = listener.local_addr().map_err(e)?;
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || -> std::io::Result<usize> {
            let (mut s, _) = listener.accept()?;
            let mut buf = vec![0u8; MIB];
            let mut total = 0;
            loop {
                match s.read(&mut buf)? {
                    0 => return Ok(total),
                    n => total += n,
                }
            }
        });
        let mut s = std::net::TcpStream::connect(addr).map_err(e)?;
        let chunk = vec![0x5Au8; MIB];
        let t = Instant::now();
        for _ in 0..BULK_MIB {
            s.write_all(&chunk).map_err(e)?;
        }
        drop(s);
        let got = reader
            .join()
            .map_err(|_| "loopback reader panicked")?
            .map_err(e)?;
        let secs = t.elapsed().as_secs_f64();
        if got != BULK_MIB * MIB {
            return Err(format!("loopback probe read {got} bytes"));
        }
        Ok((got as f64 / 1e6) / secs)
    })
}

/// Rounds of the per-round party microbenchmarks, after `WARM_ROUNDS`.
const ROUNDS: usize = 64;
const WARM_ROUNDS: usize = 4;
const PING_PONGS: usize = 1000;

/// `ROUNDS` `masked_sum_f64` rounds of one block vector; party 0's
/// seconds per round.
fn masked_sum_rounds(ctx: &mut adapter::PartyCtx, values: &[f64]) -> Result<Vec<f64>, String> {
    let (ring, _) = adapter::codecs()?;
    let mut secs = Vec::with_capacity(ROUNDS);
    for round in 0..WARM_ROUNDS + ROUNDS {
        let t = Instant::now();
        black_box(adapter::masked_sum_round(ctx, &ring, values)?);
        if round >= WARM_ROUNDS {
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(secs)
}

/// One-word ping-pong between parties 0 and 1 on the raw transport;
/// party 0's seconds per round trip (party 2 idles).
fn ping_pong(ctx: &mut adapter::PartyCtx) -> Result<Vec<f64>, String> {
    let tag = ctx.fresh_tag();
    let mut secs = Vec::new();
    for i in 0..WARM_ROUNDS + PING_PONGS {
        match ctx.id() {
            0 => {
                let t = Instant::now();
                adapter::send_words(ctx, 1, tag, &[i as u64])?;
                black_box(adapter::recv_words(ctx, 1, tag)?);
                if i >= WARM_ROUNDS {
                    secs.push(t.elapsed().as_secs_f64());
                }
            }
            1 => {
                let w = adapter::recv_words(ctx, 0, tag)?;
                adapter::send_words(ctx, 0, tag, &w)?;
            }
            _ => {}
        }
    }
    Ok(secs)
}

/// `MIN_CALLS` transfers of `BULK_MIB` one-MiB frames from party 0 to
/// party 1, each answered by a one-word acknowledgement; party 0's MB/s.
fn bulk(ctx: &mut adapter::PartyCtx) -> Result<Vec<f64>, String> {
    let tag = ctx.fresh_tag();
    let frame = vec![0x5A5A_5A5A_5A5A_5A5Au64; MIB / 8];
    let mut mbs = Vec::new();
    for _ in 0..MIN_CALLS {
        match ctx.id() {
            0 => {
                let t = Instant::now();
                for _ in 0..BULK_MIB {
                    adapter::send_words(ctx, 1, tag, &frame)?;
                }
                adapter::recv_words(ctx, 1, tag)?;
                mbs.push((BULK_MIB * MIB) as f64 / 1e6 / t.elapsed().as_secs_f64());
            }
            1 => {
                for _ in 0..BULK_MIB {
                    black_box(adapter::recv_words(ctx, 0, tag)?);
                }
                adapter::send_words(ctx, 0, tag, &[1])?;
            }
            _ => {}
        }
    }
    Ok(mbs)
}

/// A party-thread microbenchmark: what each party runs, returning party
/// 0's samples.
type PartyFn<'a> = &'a (dyn Fn(&mut adapter::PartyCtx) -> Result<Vec<f64>, String> + Sync);

/// Measures every `per_layer` metric of `BENCHMARK.json` within about
/// `budget_s`, after the untraced loops of `b` have run.
pub(crate) fn measure(
    b: &Bench,
    tracer: &mut Tracer,
    budget_s: f64,
    cold_wall_s: f64,
) -> Result<Vec<Metric>, String> {
    let mut sh = Sheet {
        tracer,
        slice_s: budget_s / SLICES,
        out: Vec::new(),
    };
    let w = b.w;
    let (n, m, k) = (w.n_total(), w.m, w.k);
    let pooled = &b.data.pooled;
    let (big_id, big_rows) = w.largest_party();
    let big = &b.data.parties[big_id];
    let secure = b.secure_ref.as_ref().ok_or("no secure reference run")?;

    // probe: what this host can do, measured in this run. The stream is
    // always as long as rdemo's X, so that no workload's roofline is read
    // out of the last-level cache.
    let x_buf = pooled.x().as_slice();
    let filler = vec![1.0f64; STREAM_WORDS.saturating_sub(x_buf.len())];
    let stream_gb = 8.0 * (x_buf.len() + filler.len()) as f64 / 1e9;
    let secs = sh.calls("probe.stream_read", MIN_CALLS, || {
        Ok(stream_sum(x_buf).wrapping_add(stream_sum(&filler)))
    })?;
    drop(filler);
    let gbps: Vec<f64> = secs.iter().map(|t| stream_gb / t).collect();
    let stream_gbps = sh.samples("probe.stream_read_gbps", "GB/s", 1.0, &gbps);
    sh.single("probe.stream_buffer_mb", "MB", stream_gb * 1e3);
    sh.single(
        "probe.llc_mb",
        "MB",
        crate::report::llc_kb() as f64 / 1024.0,
    );
    let mut loopback = Vec::new();
    for _ in 0..MIN_CALLS {
        loopback.push(
            sh.tracer
                .span("probe.loopback", |_| loopback_mb_per_s())
                .0?,
        );
    }
    let loopback_mbs = sh.samples("probe.loopback_mb_per_s", "MB/s", 1.0, &loopback);
    let fsync_path = b.dir.join("fsync.probe");
    sh.time("probe.fsync", "probe.fsync_ms", "ms", 1e3, || {
        let mut f = std::fs::File::create(&fsync_path).map_err(|e| e.to_string())?;
        f.write_all(&[0u8; 4096]).map_err(|e| e.to_string())?;
        f.sync_all().map_err(|e| e.to_string())
    })?;
    sh.single("probe.nproc", "count", nproc() as f64);

    // linalg, suffstats, stats, scan: the plaintext pipeline's stages.
    sh.time("linalg.qr", "linalg.qr_s", "s", 1.0, || {
        adapter::qr(pooled.c())
    })?;
    let q = adapter::qr(pooled.c())?;
    let local_s = sh.time("suffstats.local", "suffstats.local_s", "s", 1.0, || {
        adapter::suffstats_local(pooled.y(), pooled.x(), &q)
    })?;
    let q_big = adapter::row_block(&q, big_rows.start, big_rows.end);
    let blocks: Vec<(usize, usize)> = (0..m)
        .step_by(w.block_size)
        .map(|lo| (lo, (lo + w.block_size).min(m)))
        .collect();
    let block_s = sh.time("suffstats.block", "suffstats.block_s", "s", 1.0, || {
        for &(lo, hi) in &blocks {
            black_box(adapter::suffstats_block(big.y(), big.x(), &q_big, lo, hi)?);
        }
        Ok(())
    })?;
    let bw_frac = |rows: usize, secs: f64| 8.0 * (rows * m) as f64 / secs / (stream_gbps * 1e9);
    sh.single("suffstats.local_bw_frac", "ratio", bw_frac(n, local_s));
    sh.single(
        "suffstats.block_bw_frac",
        "ratio",
        bw_frac(big.n_samples(), block_s),
    );
    let stats = adapter::suffstats_local(pooled.y(), pooled.x(), &q)?;
    let fin_s = sh.time(
        "suffstats.finalize",
        "suffstats.finalize_s",
        "s",
        1.0,
        || adapter::finalize(&stats, n, k),
    )?;
    sh.single(
        "suffstats.finalize_ns_per_variant",
        "ns",
        fin_s * 1e9 / m as f64,
    );
    let tdist = adapter::student_t(n - k - 1)?;
    let tstats = &secure.result.t;
    sh.time(
        "stats.t_pvalue",
        "stats.t_pvalue_ns",
        "ns",
        1e9 / m as f64,
        || Ok(tstats.iter().map(|&t| tdist.two_sided_p(t)).sum::<f64>()),
    )?;
    let par_s = sh.time("scan.parallel", "scan.parallel_s", "s", 1.0, || {
        adapter::parallel_scan(pooled, nproc())
    })?;
    sh.single(
        "scan.parallel_speedup",
        "ratio",
        b.median("plain_scan_s") / par_s,
    );

    // fixed, prg, dealer: turning one block's summands into shares.
    let (lo, hi) = blocks[0];
    let block_vec = adapter::suffstats_block(big.y(), big.x(), &q_big, lo, hi)?;
    let per_word = 1e9 / block_vec.len() as f64;
    let (ring, field) = adapter::codecs()?;
    sh.time(
        "fixed.encode",
        "fixed.encode_ns_per_word",
        "ns",
        per_word,
        || adapter::encode_ring(&ring, &block_vec),
    )?;
    let mut encoded = adapter::encode_ring(&ring, &block_vec)?;
    sh.time(
        "fixed.decode",
        "fixed.decode_ns_per_word",
        "ns",
        per_word,
        || Ok(adapter::decode_ring(&ring, &encoded)),
    )?;
    sh.time(
        "fixed.encode_field",
        "fixed.encode_field_ns_per_word",
        "ns",
        per_word,
        || adapter::encode_field(&field, &block_vec),
    )?;
    let mut prg = adapter::Prg::from_seed(adapter::PROTOCOL_SEED);
    sh.time("prg.mask", "prg.mask_ns_per_word", "ns", per_word, || {
        adapter::mask_into(&mut prg, &mut encoded)
    })?;
    sh.time(
        "dealer.deal_inners",
        "dealer.deal_inners_s",
        "s",
        1.0,
        || adapter::deal_inners(k, m),
    )?;

    // masked_sum, net, tcp: rounds and frames between three party threads,
    // once over the mpsc transport and once over supervised sockets.
    let mut connect_s = Vec::new();
    let mut parties = |sh: &mut Sheet, span: &str, tcp: bool, f: PartyFn| {
        let (per_party, _) = sh.tracer.span(span, |_| -> Result<Vec<Vec<f64>>, String> {
            if !tcp {
                return adapter::mpsc_parties(PARTIES, f);
            }
            let (connects, results): (Vec<f64>, _) =
                adapter::tcp_parties(PARTIES, f)?.into_iter().unzip();
            connect_s.push(connects.into_iter().fold(0.0, f64::max));
            Ok(results)
        });
        Ok::<_, String>(per_party?.swap_remove(0))
    };
    let rounds: PartyFn = &|ctx| masked_sum_rounds(ctx, &block_vec);
    let s = parties(&mut sh, "masked_sum.mpsc", false, rounds)?;
    sh.samples("masked_sum.mpsc_round_us", "us", 1e6, &s);
    let s = parties(&mut sh, "masked_sum.tcp", true, rounds)?;
    sh.samples("masked_sum.tcp_round_us", "us", 1e6, &s);
    let s = parties(&mut sh, "net.roundtrip", false, &ping_pong)?;
    sh.samples("net.roundtrip_us", "us", 1e6, &s);
    let s = parties(&mut sh, "tcp.roundtrip", true, &ping_pong)?;
    sh.samples("tcp.roundtrip_us", "us", 1e6, &s);
    let s = parties(&mut sh, "tcp.bulk", true, &bulk)?;
    let bulk_mbs = sh.samples("tcp.bulk_mb_per_s", "MB/s", 1.0, &s);
    sh.single(
        "tcp.bulk_frac_of_loopback",
        "ratio",
        bulk_mbs / loopback_mbs,
    );
    sh.samples("tcp.connect_s", "s", 1.0, &connect_s);
    let unsupervised_s = b.median("tcp_unsupervised_s");
    sh.single(
        "tcp.supervision_cost_s",
        "s",
        b.median("tcp_scan_s") - unsupervised_s,
    );

    // secure: exact counts of the in-process run, CPU, ratios, and the
    // program's own spans from the traced repetitions.
    sh.single("secure.bytes_total", "bytes", secure.bytes_total as f64);
    sh.single(
        "secure.messages_total",
        "count",
        secure.messages_total as f64,
    );
    sh.single("secure.block_rounds", "count", secure.block_rounds as f64);
    sh.single(
        "secure.bytes_per_variant",
        "bytes",
        secure.bytes_total as f64 / m as f64,
    );
    sh.single(
        "secure.scalars_disclosed",
        "count",
        secure.scalars_disclosed as f64,
    );
    let reps = b.samples_of("secure_scan_s").len().max(1) as f64;
    let (cpu, wall) = b.secure_cpu_wall;
    sh.single("secure.cpu_s", "s", cpu / reps);
    sh.single("secure.cpu_over_wall", "ratio", cpu / wall);
    let secure_s = b.median("secure_scan_s");
    sh.single(
        "secure.over_plain",
        "ratio",
        secure_s / b.median("plain_scan_s"),
    );
    sh.single(
        "secure.max_over_default",
        "ratio",
        b.median("secure_max_scan_s") / secure_s,
    );
    let traced = b.traces[0].as_ref().ok_or("no traced in-process scan")?;
    for (metric, span) in [
        ("secure.span.rfactor_s", "phase:rfactor"),
        ("secure.span.aggregate_s", "phase:aggregate"),
        ("secure.span.block_s", "block"),
        ("secure.span.round_secure_s", "round:secure"),
    ] {
        sh.single(metric, "s", adapter::span_seconds(traced, span));
    }
    let traced_s = b.median("secure_traced_s");
    sh.single(
        "obs.trace_overhead_frac",
        "ratio",
        (traced_s - secure_s) / secure_s,
    );

    // checkpoint: one real final checkpoint, saved again.
    let (ckpt, ckpt_bytes) = b
        .checkpoint
        .as_ref()
        .ok_or("no checkpoint from a party run")?;
    let ckpt_path = b.dir.join("resave.ckpt");
    sh.time("checkpoint.save", "checkpoint.save_ms", "ms", 1e3, || {
        adapter::checkpoint_save(&ckpt_path, ckpt)
    })?;
    sh.single("checkpoint.bytes", "bytes", *ckpt_bytes as f64);
    // One after the y round and one after every block.
    sh.single(
        "checkpoint.saves",
        "count",
        adapter::checkpoint_blocks(ckpt) as f64 + 1.0,
    );
    let key = "checkpoint.party_wall_s";
    let ckpt_s = sh.samples(key, "s", 1.0, b.samples_of(key));
    let party_s = b.median("party_wall_s");
    sh.single("checkpoint.overhead_s", "s", ckpt_s - party_s);

    // io: what `dash party` does before and after the protocol.
    let x_tsv = party_dir(&b.dir, big_id).join("x.tsv");
    let x_tsv_mb = std::fs::metadata(&x_tsv).map_or(0.0, |md| md.len() as f64 / 1e6);
    let secs = sh.calls("io.read_x", 2, || adapter::read_matrix_tsv(&x_tsv))?;
    let read_s = sh.samples("io.read_x_s", "s", 1.0, &secs);
    sh.single("io.read_mb_per_s", "MB/s", x_tsv_mb / read_s);
    let scan_tsv = b.dir.join("scan.tsv");
    sh.time("io.write_scan", "io.write_scan_s", "s", 1.0, || {
        adapter::write_scan_tsv(&scan_tsv, &secure.result)
    })?;

    // cli: the phases of the three-process runs, from their timestamps.
    for key in [
        "cli.party.load_s",
        "cli.party.connect_s",
        "cli.party.protocol_s",
    ] {
        sh.samples(key, "s", 1.0, b.samples_of(key));
    }
    sh.single(
        "cli.party.load_frac",
        "ratio",
        b.median("cli.party.load_s") / party_s,
    );
    sh.single("cli.party.cold_wall_s", "s", cold_wall_s);

    // trace: the plaintext pipeline and one party's secure pipeline once
    // more, stage by stage under nested spans.
    let first = sh.tracer.spans().len();
    sh.tracer
        .span("trace.plain", |t| -> Result<(), String> {
            let q = t.span("linalg.qr", |_| adapter::qr(pooled.c())).0?;
            let (y, x) = (pooled.y(), pooled.x());
            let s = t
                .span("suffstats.local", |_| adapter::suffstats_local(y, x, &q))
                .0?;
            black_box(
                t.span("suffstats.finalize", |_| adapter::finalize(&s, n, k))
                    .0?,
            );
            Ok(())
        })
        .0?;
    sh.tracer
        .span("trace.secure_party", |t| -> Result<(), String> {
            let (y, x) = (big.y(), big.x());
            black_box(t.span("linalg.qr", |_| adapter::qr(big.c())).0?);
            black_box(
                t.span("suffstats.y_summands", |_| adapter::y_summands(y, &q_big))
                    .0?,
            );
            // One pad per peer, as `masked_sum_ring` draws them.
            let mut prgs = [adapter::Prg::from_seed(1), adapter::Prg::from_seed(2)];
            for &(lo, hi) in &blocks {
                t.span("block", |t| -> Result<(), String> {
                    let block = || adapter::suffstats_block(y, x, &q_big, lo, hi);
                    let v = t.span("suffstats.block", |_| block()).0?;
                    let mut enc = t
                        .span("fixed.encode", |_| adapter::encode_ring(&ring, &v))
                        .0?;
                    for prg in &mut prgs {
                        t.span("prg.mask", |_| adapter::mask_into(prg, &mut enc))
                            .0?;
                    }
                    black_box(
                        t.span("fixed.decode", |_| adapter::decode_ring(&ring, &enc))
                            .0,
                    );
                    Ok(())
                })
                .0?;
            }
            let res = t
                .span("suffstats.finalize", |_| adapter::finalize(&stats, n, k))
                .0?;
            t.span("io.write_scan", |_| {
                adapter::write_scan_tsv(&scan_tsv, &res)
            })
            .0
        })
        .0?;
    let replay = &sh.tracer.spans()[first..];
    let own = &self_times_ns(sh.tracer.spans())[first..];
    let plain_kernel = self_share(replay, own, "trace.plain", &["suffstats.local"]);
    let party_kernel = self_share(replay, own, "trace.secure_party", &["suffstats.block"]);
    let party_shares = self_share(
        replay,
        own,
        "trace.secure_party",
        &["fixed.encode", "prg.mask", "fixed.decode"],
    );
    sh.single("trace.plain.kernel_frac", "ratio", plain_kernel);
    sh.single("trace.secure_party.kernel_frac", "ratio", party_kernel);
    sh.single("trace.secure_party.share_frac", "ratio", party_shares);
    Ok(sh.out)
}

/// Self time (`own`, parallel to `spans`) of the spans under `root` that
/// are called one of `names`, as a share of `root`'s duration.
fn self_share(spans: &[Span], own: &[u64], root: &str, names: &[&str]) -> f64 {
    let Some(root) = spans.iter().find(|s| s.name == root) else {
        return f64::NAN;
    };
    let mut inside = vec![root.id];
    let mut sum = 0;
    // Parents precede children, so one pass finds every descendant.
    for (s, self_ns) in spans.iter().zip(own) {
        if s.parent.is_some_and(|p| inside.contains(&p)) {
            inside.push(s.id);
            if names.contains(&s.name.as_str()) {
                sum += self_ns;
            }
        }
    }
    sum as f64 / (root.end_ns - root.start_ns) as f64
}
