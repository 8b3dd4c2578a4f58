//! `trade`: participants' traffic over HTTP against a node at its
//! durable defaults.
//!
//! One keep-alive connection runs a closed loop over a seeded request
//! stream: ledger reads, deposits, offers aimed at a few popular
//! schemas (shared demand, so a round's sales form about one conflict
//! component), now and then a new ask, and every `ROUND_EVERY`-th
//! request a round. The node checkpoints every 256 commands (its
//! default) and keeps one snapshot, so compaction's checkpoint, verify
//! and truncate run in the foreground of the write that triggers them.
//! Snapshots are fsync'd; journal appends are not: fsync latency on a
//! shared disk drifted 2x between runs, which moved every write-path
//! metric by more than any end-to-end bound allows. The traced run
//! measures the fsync'd append on its own (`episode::fsync_probe`).

use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dmp_service::client::Client;
use dmp_service::command::{Command, OfferSpec};
use dmp_service::gateway::{Gateway, GatewayConfig};
use dmp_service::wire::Json;
use dmp_service::{ServiceConfig, ServiceNode};

use crate::episode::{
    ask, enroll, fsync_probe, market_config, state_probes, tag, Checks, Episode, EpisodeDir,
    RoundTally, Samples, OFFER_PRICE, SHARDS,
};
use crate::layers::Telemetry;
use crate::stats::Rng;

/// Client connections, one closed-loop thread each. One, not `nproc`:
/// with two, client, reactor and apply threads kept both vCPUs of a
/// 2-vCPU host busy, so whenever the host took one vCPU away throughput
/// halved, and three runs in ten read 45-55 % below the rest.
pub const CONNECTIONS: usize = 1;
/// Requests each connection sends per episode.
pub const REQUESTS_PER_CONNECTION: usize = 800;
/// Every this-many requests on a connection is a `POST /rounds`.
pub const ROUND_EVERY: usize = 20;
const SELLERS: usize = 6;
const BUYERS: usize = 16;
/// The popular schemas all demand is aimed at.
const SCHEMAS: usize = 3;
const ROWS: usize = 8;

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Deposit,
    Offer,
    /// An offer for a schema no seller lists: it stays pending, so
    /// every later round considers it again without a sale.
    Wish,
    Ask,
}

/// The request kinds between two rounds, in order: 8 reads, 6
/// deposits, 3 offers, 1 unmet offer and 1 ask. The mix is fixed so
/// that every seed asks the same amount of work; the seed picks buyers,
/// sellers, schemas, amounts and cells.
const MIX: [Kind; ROUND_EVERY - 1] = {
    use Kind::{Ask as A, Deposit as D, Offer as O, Read as R, Wish as W};
    [R, D, O, R, D, R, O, D, R, A, R, D, O, R, D, R, W, D, R]
};

/// Keys of one schema's tables overlap (they join with each other);
/// different schemas' keys do not.
fn schema_first_key(schema: usize) -> i64 {
    (schema * 1000) as i64
}

fn schema_columns(schema: usize) -> (String, String) {
    (
        format!("pop{}key", tag(schema)),
        format!("pop{}val", tag(schema)),
    )
}

/// One request of a connection's stream.
enum Request {
    Read(String),
    Deposit(Json),
    Offer(Json),
    Ask(Json),
    Round,
}

impl Request {
    fn send(&self, client: &mut Client) -> std::io::Result<(u16, Json)> {
        match self {
            Request::Read(name) => client.request("GET", &format!("/ledger/{name}"), None),
            Request::Deposit(body) => client.request("POST", "/deposits", Some(body)),
            Request::Offer(body) => client.request("POST", "/offers", Some(body)),
            Request::Ask(body) => client.request("POST", "/asks", Some(body)),
            Request::Round => client.request("POST", "/rounds", None),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Request::Read(_) => "GET /ledger",
            Request::Deposit(_) => "POST /deposits",
            Request::Offer(_) => "POST /offers",
            Request::Ask(_) => "POST /asks",
            Request::Round => "POST /rounds",
        }
    }
}

/// A command's gateway body: its wire form without the `op` tag the
/// endpoint implies.
fn body(cmd: &Command) -> Json {
    match cmd.encode() {
        Json::Obj(pairs) => Json::Obj(pairs.into_iter().filter(|(k, _)| k != "op").collect()),
        other => other,
    }
}

fn setup_commands(seed: u64) -> Vec<Command> {
    let mut rng = Rng::new(seed ^ 0x7472_6164_6500);
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
        let (key, val) = schema_columns(s % SCHEMAS);
        let table = format!("catalog{s}");
        cmds.push(ask(
            &format!("seller{s}"),
            &table,
            (&key, &val),
            0,
            ROWS,
            &mut rng,
        ));
    }
    cmds
}

fn stream(seed: u64, conn: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1));
    let mut asks = conn;
    (1..=REQUESTS_PER_CONNECTION)
        .map(|i| {
            if i % ROUND_EVERY == 0 {
                return Request::Round;
            }
            let buyer = format!("buyer{}", rng.below(BUYERS));
            match MIX[(i % ROUND_EVERY) - 1] {
                Kind::Read => Request::Read(buyer),
                Kind::Deposit => Request::Deposit(body(&Command::Deposit {
                    account: buyer,
                    amount: (1 + rng.below(10_000)) as f64 / 100.0,
                })),
                kind @ (Kind::Offer | Kind::Wish) => {
                    let schema = match kind {
                        Kind::Wish => SCHEMAS,
                        _ => rng.below(SCHEMAS),
                    };
                    let (key, val) = schema_columns(schema);
                    Request::Offer(body(&Command::SubmitOffer(OfferSpec::simple(
                        buyer,
                        [key, val],
                        OFFER_PRICE,
                    ))))
                }
                Kind::Ask => {
                    let schema = asks % SCHEMAS;
                    asks += 1;
                    let (key, val) = schema_columns(schema);
                    Request::Ask(body(&ask(
                        &format!("seller{}", rng.below(SELLERS)),
                        &format!("listing{conn}_{i}"),
                        (&key, &val),
                        schema_first_key(schema),
                        ROWS,
                        &mut rng,
                    )))
                }
            }
        })
        .collect()
}

struct ConnResult {
    samples: Samples,
    tally: RoundTally,
    checks: Checks,
}

fn drive(mut client: Client, requests: Vec<Request>, start: &Barrier) -> ConnResult {
    let mut out = ConnResult {
        samples: Samples::default(),
        tally: RoundTally::default(),
        checks: Checks::default(),
    };
    start.wait();
    for req in &requests {
        let started = Instant::now();
        let reply = req.send(&mut client);
        let us = started.elapsed().as_secs_f64() * 1e6;
        let (status, json) = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.checks.check(false, || format!("{}: {e}", req.label()));
                continue;
            }
        };
        out.samples.request_us.push(us);
        let ok = status == 200
            && match req {
                Request::Read(name) => json.get("account").and_then(Json::as_str) == Some(name),
                Request::Deposit(_) => json.get("balance").and_then(Json::as_f64).is_some(),
                Request::Offer(_) => json.get("offer").is_some(),
                Request::Ask(_) => json.get("dataset").is_some(),
                Request::Round => {
                    json.get("rounds").and_then(Json::as_arr).map(<[Json]>::len) == Some(1)
                }
            };
        out.checks.check(ok, || {
            format!("{} answered {status}: {}", req.label(), json.dump())
        });
        match req {
            Request::Read(_) => out.samples.read_us.push(us),
            Request::Round => {
                out.samples.round_ms.push(us / 1e3);
                for report in json.get("rounds").and_then(Json::as_arr).unwrap_or(&[]) {
                    out.tally.add_json(report);
                }
            }
            _ => out.samples.write_us.push(us),
        }
    }
    out
}

pub fn episode(root: &Path, seed: u64, traced: bool) -> std::io::Result<Episode> {
    let dir = EpisodeDir::new(root, "trade")?;
    let cfg = ServiceConfig::new(dir.path(), market_config(seed))
        .with_shards(SHARDS)
        .with_fsync(false)
        .with_keep_snapshots(1);
    let mut checks = Checks::default();
    let before = Telemetry::capture();

    let started = Instant::now();
    let node = Arc::new(ServiceNode::open(cfg.clone()).map_err(std::io::Error::other)?);
    for cmd in setup_commands(seed) {
        let applied = node.apply(cmd);
        checks.check(applied.is_ok(), || {
            format!("set-up command failed: {applied:?}")
        });
    }
    let gateway = Gateway::serve(Arc::clone(&node), GatewayConfig::default())?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(gateway.addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    let setup_s = started.elapsed().as_secs_f64();

    let start = Barrier::new(CONNECTIONS + 1);
    let (window_s, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let requests = stream(seed, conn);
                let start = &start;
                scope.spawn(move || drive(client, requests, start))
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let results: Vec<ConnResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (started.elapsed().as_secs_f64(), results)
    });

    let mut samples = Samples::default();
    let mut tally = RoundTally::default();
    for r in results {
        samples.merge(r.samples);
        tally.merge(&r.tally);
        checks.merge(r.checks);
    }
    let ops = samples.request_us.len() as u64;
    let digest = node.state_digest();
    gateway.shutdown();
    checks.check(Arc::strong_count(&node) == 1, || {
        "the gateway still holds the node after shutdown".into()
    });
    drop(node);
    let after_live = Telemetry::capture();

    let started = Instant::now();
    let reopened = ServiceNode::open(cfg).map_err(std::io::Error::other)?;
    let recovery_s = started.elapsed().as_secs_f64();
    let after_recovery = Telemetry::capture();
    checks.check(reopened.state_digest() == digest, || {
        "reopened node's digest differs from the live digest".into()
    });
    let (probes, fsync_probe) = if traced {
        let probes = state_probes(&reopened, &mut checks);
        (probes, fsync_probe(dir.path(), &mut checks))
    } else {
        (Vec::new(), Telemetry::zero())
    };
    Ok(Episode {
        setup_s,
        window_s,
        ops,
        recovery_s,
        samples,
        tally,
        checks,
        live: after_live.since(&before),
        recovery: after_recovery.since(&after_live),
        probes,
        fsync_probe,
        digest,
    })
}
