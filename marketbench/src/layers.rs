//! Deltas of the `dmp-telemetry` series the service already records.
//!
//! The benchmark adds no tracing inside the program: it snapshots the
//! process-global histograms and counters around each phase of an
//! episode and keeps the difference. Worker processes record into their
//! own registries, so in `clear`'s replication check these are the
//! coordinator's series.

use dmp_telemetry::{global, HistogramSnapshot};

/// Histograms read per layer, by their registered (labelled) names.
pub const HISTOGRAMS: &[&str] = &[
    "dmp_gateway_request_us{endpoint=\"/deposits\"}",
    "dmp_gateway_request_us{endpoint=\"/offers\"}",
    "dmp_gateway_request_us{endpoint=\"/asks\"}",
    "dmp_gateway_request_us{endpoint=\"/ledger\"}",
    "dmp_gateway_request_us{endpoint=\"/rounds\"}",
    "dmp_apply_queue_wait_us",
    "dmp_apply_us{kind=\"deposit\"}",
    "dmp_apply_us{kind=\"offer\"}",
    "dmp_apply_us{kind=\"ask\"}",
    "dmp_apply_us{kind=\"run_round\"}",
    "dmp_journal_append_us",
    "dmp_journal_fsync_us",
    "dmp_snapshot_write_us",
    "dmp_recovery_replay_us",
    "dmp_round_phase_us{phase=\"candidates\"}",
    "dmp_round_phase_us{phase=\"exchange\"}",
    "dmp_round_phase_us{phase=\"settlement\"}",
    "dmp_round_phase_us{phase=\"close\"}",
    "dmp_worker_rpc_us{rpc=\"apply\"}",
    "dmp_worker_rpc_us{rpc=\"candidates\"}",
    "dmp_worker_rpc_us{rpc=\"settle\"}",
    "dmp_worker_rpc_us{rpc=\"restore\"}",
];

/// Counters read per layer.
pub const COUNTERS: &[&str] = &[
    "dmp_journal_appends_total",
    "dmp_journal_bytes_total",
    "dmp_snapshot_writes_total",
    "dmp_snapshot_bytes_total",
    "dmp_worker_rpc_failures_total",
    "dmp_worker_redispatch_total",
];

/// One reading (or difference of readings) of every series above.
#[derive(Clone)]
pub struct Telemetry {
    hists: Vec<HistogramSnapshot>,
    counters: Vec<u64>,
}

impl Telemetry {
    /// All series at zero (the identity for [`Telemetry::add`]).
    pub fn zero() -> Telemetry {
        Telemetry {
            hists: HISTOGRAMS
                .iter()
                .map(|_| HistogramSnapshot::empty())
                .collect(),
            counters: vec![0; COUNTERS.len()],
        }
    }

    /// Read every series now.
    pub fn capture() -> Telemetry {
        // Registers the service's series under their real help text
        // before the lookups below resolve them by name.
        dmp_service::metrics::metrics();
        let registry = global();
        Telemetry {
            hists: HISTOGRAMS
                .iter()
                .map(|name| registry.histogram(name, "").snapshot())
                .collect(),
            counters: COUNTERS
                .iter()
                .map(|name| registry.counter(name, "").get())
                .collect(),
        }
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &Telemetry) -> Telemetry {
        Telemetry {
            hists: self
                .hists
                .iter()
                .zip(&earlier.hists)
                .map(|(now, then)| now.delta_since(then))
                .collect(),
            counters: self
                .counters
                .iter()
                .zip(&earlier.counters)
                .map(|(now, then)| now - then)
                .collect(),
        }
    }

    /// Accumulate another delta into this one.
    pub fn add(&mut self, other: &Telemetry) {
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
    }

    /// The named histogram delta (a name from [`HISTOGRAMS`]).
    pub fn hist(&self, name: &str) -> &HistogramSnapshot {
        let i = HISTOGRAMS
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("histogram {name} is not in HISTOGRAMS"));
        &self.hists[i]
    }

    /// Quantile `q` of the named histogram, as a float.
    pub fn q(&self, name: &str, q: f64) -> f64 {
        let h = self.hist(name);
        if h.count() == 0 {
            0.0
        } else {
            h.quantile(q) as f64
        }
    }

    /// The named counter delta (a name from [`COUNTERS`]).
    pub fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("counter {name} is not in COUNTERS"));
        self.counters[i]
    }
}
