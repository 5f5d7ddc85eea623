//! The benchmark's workloads: one traffic mix each over the same chem
//! database. The open-loop rates are fixed constants, never derived from
//! the run being measured; see `METRICS.md` for why each mix exists and
//! which metrics a layer change should move on it.

/// Graphs in the generated chem database (Γ_750).
pub const DB_SIZE: usize = 750;
/// Seed of the chem database. Fixed, so every workload and every
/// benchmark seed query the same database; the benchmark seed only picks
/// the queries and the request scripts.
pub const DB_SEED: u64 = 2007;
/// Client connections driving the server (at most the 2 cores of the
/// host the rates were set on).
pub const CONNECTIONS: usize = 2;

/// One traffic mix.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Query sizes in edges, in equal shares of the pool.
    pub sizes: &'static [usize],
    /// Distinct queries in the pool requests are drawn from.
    pub pool: usize,
    /// Zipf exponent of request selection over the pool (0 = uniform).
    pub zipf: f64,
    /// Server result-cache capacity (0 = off).
    pub cache_cap: usize,
    /// One request in this many is a write (0 = no writes in the read
    /// phases). Writes alternate an insert of a clone of a database graph
    /// with the removal of a clone the same connection inserted.
    pub write_every: usize,
    /// Requests of the closed-loop throughput phase, over all connections.
    pub closed_requests: usize,
    /// Offered rate of the open-loop latency phase, requests per second
    /// over all connections: about a third of the closed-loop capacity
    /// measured on the 2-core host the rates were set on (see
    /// `METRICS.md` for why not half).
    pub open_rate: f64,
    /// Fewest requests of the open-loop phase, whatever its length: at
    /// 1000, p99 has 10 samples beyond it.
    pub open_min: usize,
    /// Writes of the idle write-visibility segments, one after each
    /// cycle's read phases, on workloads without writes of their own.
    pub idle_writes: usize,
}

/// Every workload. `BENCHMARK.json` gates `large_q` and `churn`;
/// `small_q` runs by hand (see `METRICS.md`).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_q",
        sizes: &[4, 8],
        pool: 1600,
        zipf: 0.0,
        cache_cap: 0,
        write_every: 0,
        closed_requests: 1600,
        open_rate: 120.0,
        open_min: 1000,
        idle_writes: 100,
    },
    Workload {
        name: "large_q",
        sizes: &[16, 24],
        pool: 1000,
        zipf: 0.0,
        cache_cap: 0,
        write_every: 0,
        closed_requests: 1000,
        open_rate: 30.0,
        open_min: 1000,
        idle_writes: 160,
    },
    Workload {
        name: "churn",
        sizes: &[4, 8],
        pool: 200,
        zipf: 1.0,
        cache_cap: 4096,
        write_every: 20,
        closed_requests: 4000,
        open_rate: 60.0,
        open_min: 1000,
        idle_writes: 0,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
