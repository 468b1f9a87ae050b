//! The four workloads: what each one loads, issues and injects, and why.
//!
//! Sizes are fixed in *virtual* time so that a seed and a `--seconds` value
//! give exactly the same work on every host: `--seconds` is turned into
//! virtual seconds through [`Spec::virt_per_host_s`], a constant calibrated
//! on the reference box (2 cores, ~1.3–1.8 M simulator events/s) so that the
//! measured phase takes about `--seconds` host seconds there.

/// Exclusive upper bound of the search-key domain.
pub const DOMAIN: u64 = 1 << 40;
/// Independent rounds (fresh cluster, own sub-seed) per run; their samples
/// are pooled.
pub const ROUNDS: usize = 3;
/// Observations are drained at least this often (in ops): undrained query
/// results would make the run measure the benchmark's page faults.
pub const DRAIN_EVERY: usize = 50;
/// Virtual seconds the cluster keeps running after the last op, so that
/// every outstanding op either completes or counts as failed (the scan
/// safety net fires after 32 s).
pub const DRAIN_S: u64 = 60;
/// Virtual gap between two preloaded items.
pub const LOAD_GAP_MS: u64 = 20;
/// Virtual seconds of un-measured ops before the measured phase.
pub const WARMUP_S: u64 = 20;
/// Virtual seconds between two membership events of `peer_churn`.
pub const CHURN_EVERY_S: u64 = 60;
/// Virtual seconds a crashed peer stays down before it is restarted.
pub const RESTART_AFTER_S: u64 = 30;

/// What a workload does beyond its op mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Stationary insert / delete / narrow-query mix.
    Steady,
    /// Wide scans with a trickle of writes.
    ScanHeavy,
    /// Zipf inserts that grow the ring, then deletes that shrink it.
    GrowShrink,
    /// The steady mix under fail-stop / crash-restart / leave.
    PeerChurn,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as listed in `BENCHMARK.json`.
    pub why: &'static str,
    /// Behaviour class.
    pub kind: Kind,
    /// Uniform items loaded before the measured phase.
    pub items: usize,
    /// Whether peers run with durable storage (WAL + snapshots).
    pub durability: bool,
    /// Open loop: one op every `gap_ms` virtual milliseconds, issued whether
    /// or not earlier ops completed.
    pub gap_ms: u64,
    /// Share of ops that are inserts and deletes (each), in percent; the
    /// rest are range queries. Ignored by `grow_shrink`.
    pub write_pct: u64,
    /// Query width in millionths of the key domain.
    pub query_ppm: u64,
    /// Measured virtual seconds (summed over the rounds) per host second
    /// asked for with `--seconds`.
    pub virt_per_host_s: f64,
    /// Set-ups timed per run: one per round plus set-up-only repeats.
    /// `setup_s` is their median. A small ring sets up in 0.1–0.8 s
    /// depending on the seed (a burst of proactive stabilization while the
    /// first peers join is most of it), so it needs more samples.
    pub setups: usize,
}

/// Every workload, in reporting order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "steady",
        why: "common case: maintenance is >95% of events, so cutting chatter or per-event simulator cost shows here and scan work is negligible",
        kind: Kind::Steady,
        items: 8000,
        durability: false,
        gap_ms: 100,
        write_pct: 30,
        query_ppm: 2_000,
        virt_per_host_s: 90.0,
        setups: 5,
    },
    Spec {
        name: "scan_heavy",
        why: "5%-wide scans (~56 hops) make datastore scan forwarding most of the traffic and the router almost none; writes contend with scan locks",
        kind: Kind::ScanHeavy,
        items: 8000,
        durability: false,
        gap_ms: 10,
        write_pct: 5,
        query_ppm: 50_000,
        virt_per_host_s: 25.0,
        setups: 5,
    },
    Spec {
        name: "grow_shrink",
        why: "Zipf inserts triple a durable ring through repeated splits, deletes merge it back: hand-offs, insertSucc/leave and snapshots contend with scans",
        kind: Kind::GrowShrink,
        items: 2000,
        durability: true,
        gap_ms: 100,
        write_pct: 0,
        query_ppm: 20_000,
        virt_per_host_s: 200.0,
        setups: 15,
    },
    Spec {
        name: "peer_churn",
        why: "availability claim: a fail-stop, crash-restart or leave every 60 s runs failure detection, takeover, replica revival and WAL recovery",
        kind: Kind::PeerChurn,
        items: 2000,
        durability: true,
        gap_ms: 250,
        write_pct: 30,
        query_ppm: 2_000,
        virt_per_host_s: 500.0,
        setups: 15,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Ops in the measured phase of one round for a run of `seconds`.
    pub fn ops_per_round(&self, seconds: f64) -> usize {
        let virtual_ms = seconds * self.virt_per_host_s * 1000.0 / ROUNDS as f64;
        ((virtual_ms / self.gap_ms as f64) as usize).max(DRAIN_EVERY)
    }

    /// `grow_shrink`: every this-many-th op is a query, the others write.
    pub const GROW_QUERY_EVERY: usize = 11;

    /// Most items the index holds during a round of `ops` measured ops.
    pub fn peak_items(&self, ops: usize) -> usize {
        match self.kind {
            Kind::GrowShrink => self.items + ops / 2,
            _ => self.items + ops / 10,
        }
    }

    /// Query width in keys.
    pub fn query_width(&self) -> u64 {
        (DOMAIN / 1_000_000) * self.query_ppm
    }
}
