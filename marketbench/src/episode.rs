//! What one episode of a workload measured, and the market pieces the
//! workloads share.
//!
//! An episode builds a fresh market, drives the workload's fixed
//! command stream through it, reopens the node from its directory and
//! checks the result. Its length is fixed by the workload, so outcome
//! counts repeat exactly for a seed; a run repeats episodes until its
//! `--seconds` are spent.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dmp_core::market::MarketConfig;
use dmp_mechanism::design::MarketDesign;
use dmp_service::command::{AskSpec, CellSpec, ColType, Command, TableSpec};
use dmp_service::shard::ShardRouter;
use dmp_service::snapshot;
use dmp_service::state;
use dmp_service::wire::Json;
use dmp_service::{Journal, ServiceNode};

use crate::layers::Telemetry;
use crate::stats::Rng;

/// Shards per deployment (the node's default).
pub const SHARDS: usize = 4;
/// The posted price every sale clears at; offers bid above it.
pub const POSTED_PRICE: f64 = 12.0;
/// What every offer is willing to pay.
pub const OFFER_PRICE: f64 = 15.0;

/// The market every workload and every worker process deploys.
pub fn market_config(seed: u64) -> MarketConfig {
    MarketConfig::external(seed).with_design(MarketDesign::posted_price_baseline(POSTED_PRICE))
}

/// A letters-only name part for index `i` (< 676). Discovery matches
/// attribute names with digits normalised away, so schemas told apart
/// only by a number would all look alike to it.
pub fn tag(i: usize) -> String {
    let letter = |n: usize| char::from(b'a' + (n % 26) as u8);
    format!("{}{}", letter(i / 26), letter(i))
}

pub fn enroll(name: &str, role: &str) -> Command {
    Command::Enroll {
        name: name.to_string(),
        role: role.to_string(),
    }
}

/// A seller's ask: `rows` seeded rows over an integer key column (keys
/// from `first_key` on, so tables given disjoint key ranges share no
/// join values) and a float value column.
pub fn ask(
    seller: &str,
    table: &str,
    (key, value): (&str, &str),
    first_key: i64,
    rows: usize,
    rng: &mut Rng,
) -> Command {
    Command::SubmitAsk(AskSpec {
        seller: seller.to_string(),
        table: TableSpec {
            name: table.to_string(),
            columns: vec![
                (key.to_string(), ColType::Int),
                (value.to_string(), ColType::Float),
            ],
            rows: (0..rows)
                .map(|r| {
                    vec![
                        CellSpec::Int(first_key + r as i64),
                        CellSpec::Float(rng.below(10_000) as f64 / 100.0),
                    ]
                })
                .collect(),
        },
        reserve: None,
        license: None,
    })
}

/// Totals over the round reports a client received.
#[derive(Default, Clone)]
pub struct RoundTally {
    pub rounds: u64,
    pub considered: u64,
    pub sales: u64,
    pub cross_shard: u64,
    pub expired: u64,
    /// Conflict components, one entry per round.
    pub components: Vec<f64>,
}

impl RoundTally {
    /// Fold in one round report in its gateway JSON form.
    pub fn add_json(&mut self, report: &Json) {
        let n = |key: &str| report.get(key).and_then(Json::as_u64).unwrap_or(0);
        self.rounds += 1;
        self.considered += n("considered");
        self.sales += n("sales");
        self.cross_shard += n("cross_shard");
        self.expired += n("expired");
        self.components.push(n("components") as f64);
    }

    pub fn merge(&mut self, other: &RoundTally) {
        self.rounds += other.rounds;
        self.considered += other.considered;
        self.sales += other.sales;
        self.cross_shard += other.cross_shard;
        self.expired += other.expired;
        self.components.extend_from_slice(&other.components);
    }
}

/// Client-side latency samples.
#[derive(Default)]
pub struct Samples {
    /// Journaled deposits, asks and offers, microseconds.
    pub write_us: Vec<f64>,
    /// Ledger reads, microseconds.
    pub read_us: Vec<f64>,
    /// `RunRound`, milliseconds.
    pub round_ms: Vec<f64>,
    /// Every HTTP request, microseconds (`trade` only).
    pub request_us: Vec<f64>,
}

impl Samples {
    pub fn merge(&mut self, other: Samples) {
        self.write_us.extend(other.write_us);
        self.read_us.extend(other.read_us);
        self.round_ms.extend(other.round_ms);
        self.request_us.extend(other.request_us);
    }
}

/// Checks made and failures seen, counted against attempts.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation or check; record `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Everything one episode measured.
pub struct Episode {
    pub setup_s: f64,
    /// The timed window: the command stream, start to last reply.
    pub window_s: f64,
    /// Client operations completed in the window.
    pub ops: u64,
    pub recovery_s: f64,
    pub samples: Samples,
    pub tally: RoundTally,
    pub checks: Checks,
    /// Telemetry delta over set-up and the window.
    pub live: Telemetry,
    /// Telemetry delta over recovery.
    pub recovery: Telemetry,
    /// Bench-side timed calls of the traced run (name, value).
    pub probes: Vec<(&'static str, f64)>,
    /// Telemetry delta over the traced run's fsync probe.
    pub fsync_probe: Telemetry,
    /// The market's final state digest.
    pub digest: u64,
}

/// A fresh directory for one episode, inside the run's scratch root,
/// keyed by pid, a counter and the workload; removed on drop.
pub struct EpisodeDir(PathBuf);

impl EpisodeDir {
    pub fn new(root: &Path, workload: &str) -> std::io::Result<EpisodeDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{workload}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(EpisodeDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for EpisodeDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The traced run's bench-side calls into the state, snapshot and
/// router layers, made on a reopened node's final state: each public
/// step of checkpoint and recovery timed on its own. Where the
/// directory holds a snapshot, the decode and restore steps start from
/// it, as recovery does; otherwise from a fresh in-memory encoding.
pub fn state_probes(node: &ServiceNode, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let router = node.router();
    let started = Instant::now();
    let digest = router.state_digest();
    let digest_ms = ms(started);

    let started = Instant::now();
    let image = router.export_state();
    let export_ms = ms(started);

    let started = Instant::now();
    let encoded = state::encode(&image);
    let encode_ms = ms(started);

    let mut probes = vec![
        ("state.digest_ms", digest_ms),
        ("state.export_ms", export_ms),
        ("state.encode_ms", encode_ms),
    ];
    let cfg = node.config();
    let latest = snapshot::list_snapshots(&cfg.dir).pop();
    // `exact`: the image to decode is the live state itself, so the
    // restored router must reproduce the live digest.
    let (to_decode, tail, exact) = match latest {
        Some((_, path)) => {
            let started = Instant::now();
            let bytes = std::fs::read(&path);
            probes.push(("snapshot.read_ms", ms(started)));
            checks.check(bytes.is_ok(), || {
                format!("snapshot {} unreadable", path.display())
            });
            let started = Instant::now();
            let loaded = snapshot::load_file(&path);
            probes.push(("snapshot.load_ms", ms(started)));
            match loaded {
                Some(snap) => {
                    let tail = node.applied().saturating_sub(snap.seq);
                    (snap.state, tail, tail == 0)
                }
                None => {
                    checks.check(false, || {
                        format!("snapshot {} did not parse", path.display())
                    });
                    (encoded, node.applied(), true)
                }
            }
        }
        None => (encoded, node.applied(), true),
    };
    probes.push(("recovery.tail_records", tail as f64));

    let started = Instant::now();
    let decoded = state::decode(&to_decode);
    probes.push(("state.decode_ms", ms(started)));
    match decoded {
        Ok(image) => {
            let started = Instant::now();
            let fresh = ShardRouter::new(&cfg.market, cfg.shards);
            let restored = fresh.restore_state(image);
            probes.push(("router.restore_ms", ms(started)));
            checks.check(restored.is_ok(), || "router restore failed".into());
            if exact {
                checks.check(fresh.state_digest() == digest, || {
                    "restored router digest differs from the live digest".into()
                });
            }
        }
        Err(e) => checks.check(false, || format!("state decode failed: {e}")),
    }
    probes
}

/// Appends the fsync probe makes.
const FSYNC_PROBE_APPENDS: u64 = 64;

/// The traced run's probe of the journal's durable write path. Every
/// workload's node journals without per-append fsync (fsync latency on a
/// shared disk drifts more between runs than any end-to-end bound
/// allows), so this appends commands to a journal of its own in `dir`
/// with fsync on, and returns what `dmp_journal_fsync_us` and
/// `dmp_journal_append_us` recorded.
pub fn fsync_probe(dir: &Path, checks: &mut Checks) -> Telemetry {
    let before = Telemetry::capture();
    match Journal::open(dir.join("fsync-probe.wal"), true) {
        Ok((mut journal, _)) => {
            let cmd = Command::Deposit {
                account: "probe".into(),
                amount: 1.0,
            };
            for seq in 1..=FSYNC_PROBE_APPENDS {
                let appended = journal.append(seq, &cmd);
                checks.check(appended.is_ok(), || {
                    format!("fsync probe append failed: {appended:?}")
                });
            }
        }
        Err(e) => checks.check(false, || format!("fsync probe journal: {e}")),
    }
    Telemetry::capture().since(&before)
}
