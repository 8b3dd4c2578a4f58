//! `marketbench`: the data market service's end-to-end and per-layer
//! benchmark. See `README.md` beside this crate for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! ```text
//! marketbench --workload trade|clear --seed N --seconds S --trace 0|1
//! marketbench --workload all --seed N --seconds S     # both modes, every workload, as tables
//! ```
//!
//! A run repeats fixed-length episodes of its workload for `--seconds`
//! and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Scratch
//! directories live under `.bench_tmp/` in the working directory and
//! are removed when the run ends.

mod episode;
mod exchange;
mod layers;
mod stats;
mod trade;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::{WorkerConfig, WorkerNode};

use episode::{market_config, Checks, Episode, RoundTally, Samples, SHARDS};
use exchange::WorkerProcess;
use layers::Telemetry;
use stats::{median, quantile, ratio};

const WORKLOADS: [&str; 2] = ["trade", "clear"];

/// Episodes run (at least one) before the measured window opens.
const WARMUP: Duration = Duration::from_secs(2);

/// End-to-end metrics: what a participant or operator sees.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("trades_per_s", "1/s"),
    ("recovery_s", "s"),
];

/// Per-layer metrics of the traced run. The first three are the
/// client-side tails: on a small shared host they vary from run to run
/// by more than any end-to-end bound allows, so they are reported here,
/// without a bound, beside the layer series that explain them.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.write_p99_us", "us"),
    ("client.read_p99_us", "us"),
    ("client.round_p90_ms", "ms"),
    ("gateway.request_us.deposits.p50", "us"),
    ("gateway.request_us.deposits.p99", "us"),
    ("gateway.request_us.offers.p50", "us"),
    ("gateway.request_us.offers.p99", "us"),
    ("gateway.request_us.ledger.p50", "us"),
    ("gateway.request_us.ledger.p99", "us"),
    ("gateway.request_us.rounds.p50", "us"),
    ("gateway.request_us.rounds.p99", "us"),
    ("gateway.wire_us.p50", "us"),
    ("apply_pool.queue_wait_us.p50", "us"),
    ("apply_pool.queue_wait_us.p99", "us"),
    ("node.apply_us.deposit.p50", "us"),
    ("node.apply_us.deposit.p99", "us"),
    ("node.apply_us.offer.p50", "us"),
    ("node.apply_us.offer.p99", "us"),
    ("node.apply_us.ask.p50", "us"),
    ("node.apply_us.ask.p99", "us"),
    ("node.apply_us.round.p50", "us"),
    ("node.apply_us.round.p99", "us"),
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p99", "us"),
    ("journal.fsync_us.p50", "us"),
    ("journal.fsync_us.p99", "us"),
    ("journal.bytes_per_record", "B"),
    ("disk.bytes_per_op", "B"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.write_us.p50", "us"),
    ("state.digest_ms", "ms"),
    ("state.export_ms", "ms"),
    ("state.encode_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("state.decode_ms", "ms"),
    ("router.restore_ms", "ms"),
    ("recovery.tail_records", "count"),
    ("recovery.replay_ms", "ms"),
    ("round.candidates_us.p50", "us"),
    ("round.candidates_us.p90", "us"),
    ("round.exchange_us.p50", "us"),
    ("round.exchange_us.p90", "us"),
    ("round.settlement_us.p50", "us"),
    ("round.settlement_us.p90", "us"),
    ("round.close_us.p50", "us"),
    ("round.close_us.p90", "us"),
    ("round.considered", "count"),
    ("round.sales", "count"),
    ("round.fill_ratio", "ratio"),
    ("round.components.p50", "count"),
    ("round.cross_shard", "count"),
    ("round.expired", "count"),
    ("worker_rpc.apply_us.p50", "us"),
    ("worker_rpc.apply_us.p90", "us"),
    ("worker_rpc.candidates_us.p50", "us"),
    ("worker_rpc.candidates_us.p90", "us"),
    ("worker_rpc.settle_us.p50", "us"),
    ("worker_rpc.settle_us.p90", "us"),
    ("worker_rpc.restore_ms", "ms"),
    ("worker_rpc.failures", "count"),
    ("worker.redispatch", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("marketbench: {msg}");
    eprintln!("usage: marketbench --workload trade|clear|all --seed N --seconds S [--trace 0|1]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> u64 { usage(&format!("bad value '{value}' for {flag}")) };
        match flag.as_str() {
            "--serve-worker" => serve_worker(value.parse().unwrap_or_else(|_| bad())),
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad());
                if args.seconds == 0 {
                    usage("--seconds must be at least 1");
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value '{value}' for {flag}")),
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload '{}'", args.workload));
    }
    args
}

/// Worker mode: a `WorkerNode` replica behind the evented gateway. It
/// prints its bound address, then serves until its stdin closes.
fn serve_worker(seed: u64) -> ! {
    let worker = Arc::new(WorkerNode::new(WorkerConfig::new(
        market_config(seed),
        SHARDS,
    )));
    let gateway = match Gateway::serve_service(worker, GatewayConfig::default()) {
        Ok(gateway) => gateway,
        Err(e) => {
            eprintln!("marketbench worker: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", gateway.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    std::process::exit(0);
}

/// This run's scratch directory under `.bench_tmp/`; removed on drop,
/// with `.bench_tmp/` itself once no other run uses it.
struct ScratchRoot(PathBuf);

impl ScratchRoot {
    fn new() -> std::io::Result<ScratchRoot> {
        let dir = Path::new(".bench_tmp").join(format!("marketbench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchRoot(dir))
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Where the workloads keep their state, and how they write it.
fn policy(workload: &str) -> String {
    match workload {
        "trade" => format!(
            "fsync=off snapshot_every=256 keep_snapshots=1 shards={SHARDS} http_connections={}",
            trade::CONNECTIONS
        ),
        _ => format!(
            "fsync=off snapshot_every=0 keep_snapshots=0 shards={SHARDS} rows={} rounds={}; \
             replication check: rows={} rounds={} worker_processes={}",
            exchange::CLEAR.rows,
            exchange::CLEAR.rounds,
            exchange::REPLICATE.rows,
            exchange::REPLICATE.rounds,
            exchange::WORKERS
        ),
    }
}

fn first_line(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(
        line.split_once(':')
            .map_or(line, |(_, v)| v)
            .trim()
            .to_string(),
    )
}

/// The commit the working directory is checked out at, when it is a
/// git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn json_str(s: &str) -> String {
    dmp_service::wire::Json::str(s).dump()
}

fn provenance(args: &Args, workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let fields = [
        ("workload", json_str(workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "cpu_model",
            json_str(&first_line("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        (
            "kernel",
            json_str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim(),
            ),
        ),
        (
            "rayon_num_threads",
            json_str(&std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        (
            "build_profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_rev", json_str(&git_rev())),
        ("policy", json_str(&policy(workload))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// A finished run: its checks and both metric sets.
struct RunResult {
    checks: Checks,
    episodes: usize,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(String, f64)>,
}

fn run(workload: &str, seed: u64, seconds: u64, traced: bool) -> std::io::Result<RunResult> {
    let root = ScratchRoot::new()?;
    let mut checks = Checks::default();
    let episode = || match workload {
        "trade" => trade::episode(&root.0, seed, traced),
        _ => exchange::episode(&root.0, "clear", seed, exchange::CLEAR, &[], traced),
    };
    // Warm-up: episodes in the first seconds of a run bring the
    // allocator, page cache, thread pools and the disk's writeback to a
    // steady state. Their checks count; their timings do not.
    let started = Instant::now();
    loop {
        checks.merge(episode()?.checks);
        if started.elapsed() >= WARMUP {
            break;
        }
    }
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    while episodes.is_empty() || started.elapsed() < budget {
        episodes.push(episode()?);
    }

    for (i, ep) in episodes.iter().enumerate() {
        checks.check(ep.tally.sales > 0, || {
            format!("episode {i} settled no sales")
        });
        if workload == "clear" {
            let mean_components = ratio(
                ep.tally.components.iter().sum::<f64>(),
                ep.tally.components.len() as f64,
            );
            checks.check(mean_components > 1.0, || {
                format!("episode {i} averaged {mean_components} components per round")
            });
            let first = &episodes[0];
            checks.check(
                ep.digest == first.digest && ep.tally.sales == first.tally.sales,
                || format!("episode {i} diverged from episode 0 on the same stream"),
            );
        }
    }
    let replicated = if workload == "clear" {
        Some(replication(&root.0, seed, traced, &mut checks)?)
    } else {
        None
    };
    Ok(aggregate(episodes, replicated, checks))
}

/// `clear`'s replication check, made after its window: one episode of
/// the [`exchange::REPLICATE`] stream driven in process, then the same
/// stream with worker processes attached. Its digest and sale count
/// must equal the in-process episode's; [`exchange::episode`] checks
/// the workers' own digests and RPC counters. Returns the replicated
/// episode, whose telemetry gives the `worker_rpc.*` metrics.
fn replication(
    root: &Path,
    seed: u64,
    traced: bool,
    checks: &mut Checks,
) -> std::io::Result<Episode> {
    let solo = exchange::episode(root, "solo", seed, exchange::REPLICATE, &[], false)?;
    let mut workers = Vec::new();
    for _ in 0..exchange::WORKERS {
        workers.push(WorkerProcess::spawn(seed)?);
    }
    let addrs: Vec<_> = workers.iter().map(|w| w.addr).collect();
    let replicated = exchange::episode(
        root,
        "replicated",
        seed,
        exchange::REPLICATE,
        &addrs,
        traced,
    )?;
    drop(workers);
    checks.check(
        replicated.digest == solo.digest && replicated.tally.sales == solo.tally.sales,
        || {
            format!(
                "replicated: digest {:016x}, {} sales; in process: {:016x}, {} sales",
                replicated.digest, replicated.tally.sales, solo.digest, solo.tally.sales
            )
        },
    );
    checks.merge(solo.checks);
    Ok(replicated)
}

fn aggregate(episodes: Vec<Episode>, replicated: Option<Episode>, mut checks: Checks) -> RunResult {
    let count = episodes.len();
    let per_episode =
        |f: &dyn Fn(&Episode) -> f64| -> Vec<f64> { episodes.iter().map(f).collect() };
    let setup = per_episode(&|e| e.setup_s);
    let ops_rate = per_episode(&|e| e.ops as f64 / e.window_s);
    let round_rate = per_episode(&|e| e.tally.rounds as f64 / e.window_s);
    let trade_rate = per_episode(&|e| e.tally.sales as f64 / e.window_s);
    let recovery = per_episode(&|e| e.recovery_s);
    let mut probes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (name, value) in episodes.iter().flat_map(|e| &e.probes) {
        probes.entry(name).or_default().push(*value);
    }
    let mut samples = Samples::default();
    let mut tally = RoundTally::default();
    let mut live = Telemetry::zero();
    let mut rec = Telemetry::zero();
    let mut fsync = Telemetry::zero();
    let mut ops = 0u64;
    for ep in episodes {
        samples.merge(ep.samples);
        tally.merge(&ep.tally);
        checks.merge(ep.checks);
        live.add(&ep.live);
        rec.add(&ep.recovery);
        fsync.add(&ep.fsync_probe);
        ops += ep.ops;
    }

    let end_to_end = vec![
        ("setup_s", median(&setup)),
        ("ops_per_s", median(&ops_rate)),
        ("write_p50_us", quantile(&samples.write_us, 0.5)),
        ("read_p50_us", quantile(&samples.read_us, 0.5)),
        ("rounds_per_s", median(&round_rate)),
        ("round_p50_ms", quantile(&samples.round_ms, 0.5)),
        ("trades_per_s", median(&trade_rate)),
        ("recovery_s", median(&recovery)),
    ];

    let q = |name: &str, p: f64| live.q(name, p);
    let endpoint = |e: &str| format!("dmp_gateway_request_us{{endpoint=\"/{e}\"}}");
    let mut server = dmp_telemetry::HistogramSnapshot::empty();
    for e in ["deposits", "offers", "asks", "ledger", "rounds"] {
        server.merge(live.hist(&endpoint(e)));
    }
    let wire_p50 = if samples.request_us.is_empty() {
        0.0
    } else {
        quantile(&samples.request_us, 0.5) - server.quantile(0.5) as f64
    };
    let journal_bytes = live.counter("dmp_journal_bytes_total") as f64;
    let snapshot_writes = live.counter("dmp_snapshot_writes_total") as f64;
    let snapshot_bytes = live.counter("dmp_snapshot_bytes_total") as f64;
    let rounds = tally.rounds as f64;
    let mut per_layer: Vec<(String, f64)> = Vec::new();
    let mut put = |name: String, value: f64| per_layer.push((name, value));
    put(
        "client.write_p99_us".into(),
        quantile(&samples.write_us, 0.99),
    );
    put(
        "client.read_p99_us".into(),
        quantile(&samples.read_us, 0.99),
    );
    put(
        "client.round_p90_ms".into(),
        quantile(&samples.round_ms, 0.9),
    );
    for e in ["deposits", "offers", "ledger", "rounds"] {
        put(format!("gateway.request_us.{e}.p50"), q(&endpoint(e), 0.5));
        put(format!("gateway.request_us.{e}.p99"), q(&endpoint(e), 0.99));
    }
    put("gateway.wire_us.p50".into(), wire_p50);
    for (p, suffix) in [(0.5, "p50"), (0.99, "p99")] {
        put(
            format!("apply_pool.queue_wait_us.{suffix}"),
            q("dmp_apply_queue_wait_us", p),
        );
    }
    for (kind, label) in [
        ("deposit", "deposit"),
        ("offer", "offer"),
        ("ask", "ask"),
        ("run_round", "round"),
    ] {
        let name = format!("dmp_apply_us{{kind=\"{kind}\"}}");
        put(format!("node.apply_us.{label}.p50"), q(&name, 0.5));
        put(format!("node.apply_us.{label}.p99"), q(&name, 0.99));
    }
    put(
        "journal.append_us.p50".into(),
        q("dmp_journal_append_us", 0.5),
    );
    put(
        "journal.append_us.p99".into(),
        q("dmp_journal_append_us", 0.99),
    );
    put(
        "journal.fsync_us.p50".into(),
        fsync.q("dmp_journal_fsync_us", 0.5),
    );
    put(
        "journal.fsync_us.p99".into(),
        fsync.q("dmp_journal_fsync_us", 0.99),
    );
    put(
        "journal.bytes_per_record".into(),
        ratio(
            journal_bytes,
            live.counter("dmp_journal_appends_total") as f64,
        ),
    );
    put(
        "disk.bytes_per_op".into(),
        ratio(journal_bytes + snapshot_bytes, ops as f64),
    );
    put(
        "snapshot.count".into(),
        ratio(snapshot_writes, count as f64),
    );
    put(
        "snapshot.bytes".into(),
        ratio(snapshot_bytes, snapshot_writes),
    );
    put(
        "snapshot.write_us.p50".into(),
        q("dmp_snapshot_write_us", 0.5),
    );
    for name in [
        "state.digest_ms",
        "state.export_ms",
        "state.encode_ms",
        "snapshot.read_ms",
        "snapshot.load_ms",
        "state.decode_ms",
        "router.restore_ms",
        "recovery.tail_records",
    ] {
        put(
            name.into(),
            median(probes.get(name).map_or(&[], Vec::as_slice)),
        );
    }
    put(
        "recovery.replay_ms".into(),
        rec.q("dmp_recovery_replay_us", 0.5) / 1e3,
    );
    for phase in ["candidates", "exchange", "settlement", "close"] {
        let name = format!("dmp_round_phase_us{{phase=\"{phase}\"}}");
        put(format!("round.{phase}_us.p50"), q(&name, 0.5));
        put(format!("round.{phase}_us.p90"), q(&name, 0.9));
    }
    put(
        "round.considered".into(),
        ratio(tally.considered as f64, rounds),
    );
    put("round.sales".into(), ratio(tally.sales as f64, rounds));
    put(
        "round.fill_ratio".into(),
        ratio(tally.sales as f64, tally.considered as f64),
    );
    put("round.components.p50".into(), median(&tally.components));
    put(
        "round.cross_shard".into(),
        ratio(tally.cross_shard as f64, rounds),
    );
    put("round.expired".into(), ratio(tally.expired as f64, rounds));
    // The coordinator's side of `clear`'s replication check.
    let rpc = replicated.map_or_else(Telemetry::zero, |e| {
        checks.merge(e.checks);
        e.live
    });
    for name in ["apply", "candidates", "settle"] {
        let series = format!("dmp_worker_rpc_us{{rpc=\"{name}\"}}");
        put(format!("worker_rpc.{name}_us.p50"), rpc.q(&series, 0.5));
        put(format!("worker_rpc.{name}_us.p90"), rpc.q(&series, 0.9));
    }
    put(
        "worker_rpc.restore_ms".into(),
        rpc.q("dmp_worker_rpc_us{rpc=\"restore\"}", 0.5) / 1e3,
    );
    put(
        "worker_rpc.failures".into(),
        rpc.counter("dmp_worker_rpc_failures_total") as f64,
    );
    put(
        "worker.redispatch".into(),
        rpc.counter("dmp_worker_redispatch_total") as f64,
    );
    RunResult {
        checks,
        episodes: count,
        end_to_end,
        per_layer,
    }
}

/// `value` of `name` in `metrics`, which must list it.
fn lookup<S: AsRef<str>>(metrics: &[(S, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n.as_ref() == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("metric {name} was not computed"))
}

/// `"name": {"value": …, "unit": …}` for every metric of `table`.
fn render<S: AsRef<str>>(set: &[(S, f64)], table: &[(&str, &str)]) -> Vec<String> {
    table
        .iter()
        .map(|(name, unit)| {
            let value = lookup(set, name);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect()
}

fn result_line(result: &RunResult, traced: bool) -> String {
    let metrics = if traced {
        render(&result.per_layer, PER_LAYER)
    } else {
        render(&result.end_to_end, END_TO_END)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.checks.failures.is_empty(),
        result.checks.attempted.max(1),
        result.checks.failures.len(),
        metrics.join(", ")
    )
}

fn report_failures(workload: &str, result: &RunResult) {
    for failure in result.checks.failures.iter().take(10) {
        eprintln!("marketbench {workload}: FAILED {failure}");
    }
}

/// `--workload all`: every workload untraced then traced, printed as
/// tables — the traced run's cost on each end-to-end metric, and every
/// per-layer metric by workload, flagging those that read zero in all.
fn report(args: &Args) -> bool {
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        println!("{}", provenance(args, workload));
        let pair: Vec<RunResult> = [false, true]
            .into_iter()
            .map(|traced| {
                run(workload, args.seed, args.seconds, traced).unwrap_or_else(|e| {
                    eprintln!("marketbench {workload}: run failed: {e}");
                    std::process::exit(1);
                })
            })
            .collect();
        for r in &pair {
            report_failures(workload, r);
            all_correct &= r.checks.failures.is_empty();
        }
        results.push((workload, pair));
    }
    println!("\n## Traced run cost (traced - untraced)\n");
    println!("| metric | unit | workload | untraced | traced | difference |");
    println!("|---|---|---|---|---|---|");
    for (name, unit) in END_TO_END {
        for (workload, pair) in &results {
            let (plain, traced) = (
                lookup(&pair[0].end_to_end, name),
                lookup(&pair[1].end_to_end, name),
            );
            println!(
                "| {name} | {unit} | {workload} | {plain:.4} | {traced:.4} | {:+.4} |",
                traced - plain
            );
        }
    }
    println!("\n## Per-layer metrics (traced run)\n");
    println!("| metric | unit | trade | clear | note |");
    println!("|---|---|---|---|---|");
    for (name, unit) in PER_LAYER {
        let values: Vec<f64> = results
            .iter()
            .map(|(_, pair)| lookup(&pair[1].per_layer, name))
            .collect();
        let note = if values.iter().all(|v| *v == 0.0) {
            "ZERO in every workload"
        } else {
            ""
        };
        println!(
            "| {name} | {unit} | {:.3} | {:.3} | {note} |",
            values[0], values[1]
        );
    }
    println!(
        "\nepisodes per run (untraced, traced): {}",
        results
            .iter()
            .map(|(w, p)| format!("{w} {}/{}", p[0].episodes, p[1].episodes))
            .collect::<Vec<_>>()
            .join(", ")
    );
    all_correct
}

fn main() {
    let args = parse_args();
    if args.workload == "all" {
        let ok = report(&args);
        std::process::exit(if ok { 0 } else { 1 });
    }
    println!("{}", provenance(&args, &args.workload));
    let host_before = cpu_ticks();
    let result = match run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("marketbench {}: run failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report_failures(&args.workload, &result);
    eprintln!(
        "marketbench {}: {} episodes, {} checks and operations, {} failed",
        args.workload,
        result.episodes,
        result.checks.attempted,
        result.checks.failures.len()
    );
    if let (Some(before), Some(after)) = (host_before, cpu_ticks()) {
        let steal = after.0.saturating_sub(before.0) as f64;
        let total = after.1.saturating_sub(before.1) as f64;
        println!(
            "{{\"host\": {{\"steal_pct\": {:.2}}}}}",
            100.0 * ratio(steal, total)
        );
    }
    println!("{}", result_line(&result, args.trace));
}

/// `(steal, total)` ticks of every CPU from `/proc/stat`. Steal is the
/// time the hypervisor ran something else while a vCPU was ready; on a
/// shared host it slows every figure of a run, so each run reports its
/// share beside the result.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let busy_and_idle = fields.get(..8)?;
    Some((busy_and_idle[7], busy_and_idle.iter().sum()))
}
