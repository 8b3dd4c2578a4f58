//! `clear`: a round-heavy market driven in-process through
//! `ServiceNode::apply`, alone or with worker replicas.
//!
//! A fixed catalog of sellers with disjoint schemas; each round, offers
//! from distinct buyers target distinct sellers, so the cleared sales
//! split into one conflict component per offer. A few deposits ride
//! along as writes, and every offering buyer reads its balance after
//! the round. The node journals without fsync and never checkpoints,
//! so recovery is a full journal replay.
//!
//! After its window, a `clear` run drives a stream of the same kind
//! with a coordinator and worker processes attached over loopback
//! through `WorkerPool`; its final digest and sale count must equal
//! those of the same stream driven in process. Its sellers' tables are
//! smaller than the timed stream's (see [`Shape`]).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Stdio};
use std::sync::Arc;
use std::time::Instant;

use dmp_service::client::Client;
use dmp_service::command::{Command, OfferSpec};
use dmp_service::shard::Outcome;
use dmp_service::{ServiceConfig, ServiceNode, WorkerPool};

use crate::episode::{
    ask, enroll, market_config, state_probes, tag, Checks, Episode, EpisodeDir, RoundTally,
    Samples, OFFER_PRICE, SHARDS,
};
use crate::layers::Telemetry;
use crate::stats::Rng;

pub const SELLERS: usize = 64;
pub const BUYERS: usize = 32;
pub const OFFERS_PER_ROUND: usize = 16;
pub const DEPOSITS_PER_ROUND: usize = 2;
/// Worker processes the replication check attaches.
pub const WORKERS: usize = 2;

/// The size of a market's catalog and of its episode.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Rows in each seller's table.
    pub rows: usize,
    /// Rounds per episode. Round cost grows with history, so the
    /// length is fixed.
    pub rounds: usize,
}

/// `clear`'s timed stream: tables large enough that discovery and
/// mashup building, not the thread start-ups of the parallel phases,
/// take most of a round. Thread start-up and cross-vCPU wake-up cost
/// on a shared 2-vCPU host moved from run to run twice as much as the
/// market's own work did.
pub const CLEAR: Shape = Shape {
    rows: 500,
    rounds: 20,
};

/// The replication check's stream: small tables. Provisioning ships
/// the whole state image, and every round ships candidate sets, as
/// JSON, whose parser is quadratic in document size (`wire.rs`,
/// `Parser::string`): with 200-row tables set-up alone took 13 s and a
/// round 0.6 s, and with [`CLEAR`]'s tables provisioning failed.
pub const REPLICATE: Shape = Shape {
    rows: 6,
    rounds: 60,
};

fn seller_columns(seller: usize) -> (String, String) {
    (format!("{}key", tag(seller)), format!("{}val", tag(seller)))
}

enum Step {
    Write(Command),
    Round,
    Read(String),
}

fn setup_commands(seed: u64, shape: Shape) -> Vec<Command> {
    let mut rng = Rng::new(seed ^ 0x636c_6561_7200);
    let mut cmds = Vec::new();
    for s in 0..SELLERS {
        cmds.push(enroll(&format!("seller{s}"), "seller"));
    }
    for b in 0..BUYERS {
        let buyer = format!("buyer{b}");
        cmds.push(enroll(&buyer, "buyer"));
        cmds.push(Command::Deposit {
            account: buyer,
            amount: 100_000.0,
        });
    }
    for s in 0..SELLERS {
        let (key, val) = seller_columns(s);
        let first_key = (s * shape.rows) as i64;
        cmds.push(ask(
            &format!("seller{s}"),
            &format!("catalog{s}"),
            (&key, &val),
            first_key,
            shape.rows,
            &mut rng,
        ));
    }
    cmds
}

fn stream(seed: u64, shape: Shape) -> Vec<Step> {
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
    let mut steps = Vec::new();
    for _ in 0..shape.rounds {
        let buyers = rng.distinct(BUYERS, OFFERS_PER_ROUND);
        let sellers = rng.distinct(SELLERS, OFFERS_PER_ROUND);
        for (&b, &s) in buyers.iter().zip(&sellers) {
            let (key, val) = seller_columns(s);
            steps.push(Step::Write(Command::SubmitOffer(OfferSpec::simple(
                format!("buyer{b}"),
                [key, val],
                OFFER_PRICE,
            ))));
        }
        for _ in 0..DEPOSITS_PER_ROUND {
            steps.push(Step::Write(Command::Deposit {
                account: format!("buyer{}", rng.below(BUYERS)),
                amount: (1 + rng.below(10_000)) as f64 / 100.0,
            }));
        }
        steps.push(Step::Round);
        for &b in &buyers {
            steps.push(Step::Read(format!("buyer{b}")));
        }
    }
    steps
}

/// A worker replica in a process of its own (this binary, re-executed
/// in worker mode). It exits when its stdin closes, so it cannot
/// outlive the benchmark however the benchmark ends; drop kills and
/// reaps it.
pub struct WorkerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl WorkerProcess {
    pub fn spawn(seed: u64) -> std::io::Result<WorkerProcess> {
        let mut child = std::process::Command::new(std::env::current_exe()?)
            .arg("--serve-worker")
            .arg(seed.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut proc = WorkerProcess {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stdout = proc.child.stdout.take().expect("worker stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        proc.addr = line.trim().parse().map_err(|_| {
            std::io::Error::other(format!(
                "worker printed '{}' instead of its address",
                line.trim()
            ))
        })?;
        Ok(proc)
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A worker's own state digest (`GET /internal/digest`).
fn worker_digest(addr: SocketAddr) -> Option<u64> {
    let json = Client::connect(addr).ok()?.get("/internal/digest").ok()?;
    json.get("digest")?.as_str()?.parse().ok()
}

/// One episode: in process when `workers` is empty, replicated to them
/// otherwise.
pub fn episode(
    root: &Path,
    name: &str,
    seed: u64,
    shape: Shape,
    workers: &[SocketAddr],
    traced: bool,
) -> std::io::Result<Episode> {
    let dir = EpisodeDir::new(root, name)?;
    let cfg = ServiceConfig::new(dir.path(), market_config(seed))
        .with_shards(SHARDS)
        .with_fsync(false)
        .with_snapshot_every(0);
    let mut checks = Checks::default();
    let steps = stream(seed, shape);
    let before = Telemetry::capture();

    let started = Instant::now();
    let node = ServiceNode::open(cfg.clone()).map_err(std::io::Error::other)?;
    for cmd in setup_commands(seed, shape) {
        let applied = node.apply(cmd);
        checks.check(applied.is_ok(), || {
            format!("set-up command failed: {applied:?}")
        });
    }
    let pool = if workers.is_empty() {
        None
    } else {
        let pool = Arc::new(WorkerPool::connect(
            node.fingerprint(),
            cfg.shards,
            workers,
        )?);
        let provisioned = pool.provision_all(&node);
        checks.check(provisioned == workers.len(), || {
            format!("{provisioned} of {} workers provisioned", workers.len())
        });
        WorkerPool::attach(&pool, &node);
        Some(pool)
    };
    let setup_s = started.elapsed().as_secs_f64();

    let mut samples = Samples::default();
    let mut tally = RoundTally::default();
    let ops = steps.len() as u64;
    let window = Instant::now();
    for step in steps {
        let started = Instant::now();
        match step {
            Step::Write(cmd) => {
                let applied = node.apply(cmd);
                samples.write_us.push(started.elapsed().as_secs_f64() * 1e6);
                checks.check(applied.is_ok(), || format!("write failed: {applied:?}"));
            }
            Step::Round => {
                let applied = node.apply(Command::RunRound { rounds: 1 });
                samples.round_ms.push(started.elapsed().as_secs_f64() * 1e3);
                let report = match &applied {
                    Ok(Outcome::RoundsRun(reports)) if reports.len() == 1 => reports.first(),
                    _ => None,
                };
                checks.check(report.is_some(), || format!("round failed: {applied:?}"));
                if let Some(report) = report {
                    tally.add_json(&report.to_json());
                }
            }
            Step::Read(buyer) => {
                let balance = node.router().balance(&buyer);
                samples.read_us.push(started.elapsed().as_secs_f64() * 1e6);
                checks.check(balance.is_finite() && balance >= 0.0, || {
                    format!("{buyer} reads balance {balance}")
                });
            }
        }
    }
    let window_s = window.elapsed().as_secs_f64();

    let digest = node.state_digest();
    if let Some(pool) = &pool {
        let live = pool.live_workers();
        checks.check(live == workers.len(), || {
            format!("{live} of {} workers live after the episode", workers.len())
        });
        for &addr in workers {
            let replica = worker_digest(addr);
            checks.check(replica == Some(digest), || {
                format!("worker {addr} digest {replica:?}, coordinator {digest}")
            });
        }
    }
    drop(pool);
    drop(node);
    let after_live = Telemetry::capture();
    let live = after_live.since(&before);
    for counter in [
        "dmp_worker_rpc_failures_total",
        "dmp_worker_redispatch_total",
    ] {
        let n = live.counter(counter);
        checks.check(n == 0, || format!("{counter} moved by {n}"));
    }

    let started = Instant::now();
    let reopened = ServiceNode::open(cfg).map_err(std::io::Error::other)?;
    let recovery_s = started.elapsed().as_secs_f64();
    let after_recovery = Telemetry::capture();
    checks.check(reopened.state_digest() == digest, || {
        "reopened node's digest differs from the live digest".into()
    });
    let probes = if traced {
        state_probes(&reopened, &mut checks)
    } else {
        Vec::new()
    };
    Ok(Episode {
        setup_s,
        window_s,
        ops,
        recovery_s,
        samples,
        tally,
        checks,
        live,
        recovery: after_recovery.since(&after_live),
        probes,
        fsync_probe: Telemetry::zero(),
        digest,
    })
}
