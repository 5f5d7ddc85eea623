//! The repository benchmark: builds a TreePi index over the chem database,
//! serves it in process through `serve::Server`, drives it over the wire
//! with `serve::Client`, and checks every answer against the scan oracle.
//!
//! A run with tracing off reports the end-to-end metrics; a traced run
//! times the public entry points of each layer from outside and reports
//! the per-layer metrics. `METRICS.md` maps each layer metric to the
//! end-to-end metric and workload it should move.

pub mod drive;
pub mod inputs;
pub mod layers;
pub mod replay;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workload;

use drive::{run_phase, with_server, ConnLog, Ctx};
use graph_core::Graph;
use inputs::{answer_ok, Picker, Writes};
use stats::{median, quantile, ratio, Delta};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use trace::Tracer;
use workload::Workload;

/// End-to-end metrics reported, ungated, as per-layer metrics of the
/// traced run (see `METRICS.md`).
const TAIL_METRICS: [&str; 4] = [
    "p50_all_ms",
    "p99_ms",
    "write_visible_p50_ms",
    "write_visible_p90_ms",
];

/// Cycles of an untraced run. Each cycle runs one closed-loop round, one
/// open-loop segment and one idle-write segment, so every metric samples
/// the whole run rather than one stretch of it: the host's speed drifts
/// by ±20% within tens of seconds. `qps` is the median of the rounds'
/// throughputs, so a slow-down or a rare slow query that falls in one
/// round does not decide the run's figure.
pub const CYCLES: usize = 10;

/// One cycle's scripts: a closed-loop round, an open-loop segment (one
/// script per connection each) and an idle-write script.
struct Cycle {
    closed: Vec<Vec<inputs::Op>>,
    open: Vec<Vec<inputs::Op>>,
    idle: Vec<inputs::Op>,
}

/// Part `j` of `n` split into `parts` near-equal parts.
fn share(n: usize, parts: usize, j: usize) -> usize {
    (j + 1) * n / parts - j * n / parts
}

/// Pool queries the traced run replays stage by stage (a uniform random
/// subset: the pool is drawn in random order).
const REPLAY_MAX: usize = 400;

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of the queries and request scripts.
    pub seed: u64,
    /// Minimum length of the open-loop phase in seconds.
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Graphs in the chem database.
    pub db_size: usize,
    /// Timed set-ups in an untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Cycles of closed, open and idle-write phases ([`CYCLES`] untraced;
    /// 1 traced, so the serve deltas bracket the read phases only).
    pub cycles: usize,
    /// Where the traced run writes its spans.
    pub spans_path: Option<PathBuf>,
    /// Corrupt one received answer before the check (self-test only).
    pub corrupt_answer: bool,
}

impl RunConfig {
    /// The full-size run of `workload`.
    pub fn new(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload: workload.clone(),
            seed,
            seconds,
            trace,
            db_size: workload::DB_SIZE,
            setup_reps: 3,
            cycles: if trace { 1 } else { CYCLES },
            spans_path: None,
            corrupt_answer: false,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// The result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every answer was right and the replay matched the engine.
    pub correct: bool,
    /// Requests sent over the wire.
    pub attempted: usize,
    /// Requests that failed: Busy, errors, transport failures, writes
    /// that never became visible, and wrong answers.
    pub failed: usize,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub(crate) fn push(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }
}

/// Run the benchmark once.
pub fn run(cfg: &RunConfig) -> std::io::Result<Outcome> {
    let w = &cfg.workload;
    let mut out = Outcome::default();
    let mut tr = Tracer::default();
    let db = inputs::database(cfg.db_size, workload::DB_SEED);
    let pool = inputs::query_pool(&db, w, w.pool, cfg.seed);

    // Request scripts. Their write probes join the pool in one query list
    // so the oracle answers both.
    let mut rng = inputs::rng_for(cfg.seed, w.name, "scripts");
    let mut picker = Picker::new(pool.len(), w.sizes.len(), w.zipf);
    let mut writes = Writes::new(&db, pool.len());
    let conns = workload::CONNECTIONS;
    let cycles = cfg.cycles.clamp(1, w.closed_requests.max(1));
    let open_n = ((w.open_rate * cfg.seconds).round() as usize).max(w.open_min);
    let plan: Vec<Cycle> = (0..cycles)
        .map(|j| {
            let mut script = |n: usize| {
                inputs::scripts(
                    share(n, cycles, j),
                    conns,
                    &mut picker,
                    w.write_every,
                    &mut writes,
                    &mut rng,
                )
            };
            let closed = script(w.closed_requests);
            let open = script(open_n);
            let idle = 2 * share(w.idle_writes / 2, cycles, j);
            Cycle {
                closed,
                open,
                idle: inputs::write_script(idle, &mut writes, &mut rng),
            }
        })
        .collect();
    let queries: Vec<Graph> = pool.into_iter().chain(writes.probes).collect();

    // The build and the engine use every core, as a deployment would.
    let threads = treepi::resolve_threads(0);
    let setup = if cfg.trace {
        setup::set_up_traced(&db, threads, &mut tr, &mut out)?
    } else {
        setup::set_up(&db, threads, cfg.setup_reps)?
    };
    let engine = &setup.engine;
    let index_mb = engine.pin().memory_breakdown().total() as f64 / 1e6;
    let oracle = tr.time("oracle", None, None, || {
        inputs::oracle(&engine.pin(), &queries, threads)
    });
    let mut correct = true;
    if cfg.trace {
        let n = w.pool.min(REPLAY_MAX);
        correct &= layers::engine_and_replay(
            engine,
            &queries[..n],
            &oracle[..n],
            cfg.seed,
            &mut tr,
            &mut out,
        );
    }

    let donors = Mutex::new(HashMap::new());
    let ctx = Ctx {
        queries: &queries,
        db: &db,
        donors: &donors,
    };
    let config = serve::ServeConfig {
        cache_cap: w.cache_cap,
        ..serve::ServeConfig::default()
    };
    let trace = cfg.trace;
    let ((runs, snaps), report) = with_server(engine, config, |addr| {
        let before = trace.then(|| drive::stats(addr));
        let mut after = None;
        let mut runs = Vec::new();
        for (j, cycle) in plan.iter().enumerate() {
            let c = tr.open("phase.closed", None, None);
            let closed = run_phase(addr, &ctx, &cycle.closed, None);
            tr.close(c);
            let o = tr.open("phase.open", None, None);
            let (open, _) = run_phase(addr, &ctx, &cycle.open, Some(w.open_rate));
            tr.close(o);
            if trace && j + 1 == plan.len() {
                after = Some(drive::stats(addr));
            }
            let i = tr.open("phase.idle_writes", None, None);
            let (idle, _) = run_phase(addr, &ctx, std::slice::from_ref(&cycle.idle), None);
            tr.close(i);
            runs.push((closed, open, idle));
        }
        (runs, before.zip(after))
    })?;

    // Check every answer against the oracle, now that every clone id is known.
    let donors = donors.into_inner().expect("donor map poisoned");
    let n_orig = db.len() as u32;
    // One log per closed round, then the merged open and idle-write logs.
    let mut logs = Vec::new();
    let mut walls = Vec::new();
    let (mut open_log, mut idle_log) = (ConnLog::default(), ConnLog::default());
    for ((closed, wall), open, idle) in runs {
        logs.push(closed);
        walls.push(wall);
        open_log.merge(open);
        idle_log.merge(idle);
    }
    let rounds = logs.len();
    logs.extend([open_log, idle_log]);
    if cfg.corrupt_answer {
        if let Some((_, _, ids)) = logs.iter_mut().flat_map(|l| l.answers.iter_mut()).next() {
            ids.push(u32::MAX);
        }
    }
    let wrong = |l: &ConnLog, reads_only: bool| {
        l.answers
            .iter()
            .filter(|(i, read, ids)| {
                (*read || !reads_only) && !answer_ok(&oracle[*i as usize], ids, n_orig, &donors)
            })
            .count()
    };
    let wrong_total: usize = logs.iter().map(|l| wrong(l, false)).sum();
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum::<usize>() + wrong_total;
    out.correct = correct && out.failed == 0;
    let (closed_logs, open_log) = (&logs[..rounds], &logs[rounds]);

    let inserts: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.insert_visible_ms.iter().copied())
        .collect();
    let removes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.remove_visible_ms.iter().copied())
        .collect();
    let visible: Vec<f64> = inserts.iter().chain(&removes).copied().collect();
    let reads_ok: Vec<usize> = closed_logs
        .iter()
        .map(|l| l.answers.iter().filter(|a| a.1).count() - wrong(l, true))
        .collect();
    let round_qps: Vec<f64> = reads_ok
        .iter()
        .zip(&walls)
        .map(|(&n, wall)| n as f64 / wall.as_secs_f64())
        .collect();
    out.notes.push(format!(
        "error_rate {} ({} failed of {} requests; {} wrong answers)",
        out.error_rate(),
        out.failed,
        out.attempted,
        wrong_total
    ));
    out.notes.push(format!("server: {report}"));
    out.notes
        .push(format!("closed-loop rounds (1/s): {round_qps:.2?}"));
    if cfg.trace {
        if let Some((Ok(before), Ok(after))) = &snaps {
            layers::serve_metrics(&Delta::new(before, after), open_log, &mut out);
        } else {
            out.correct = false;
            out.notes.push("STATS snapshot failed".into());
        }
        for (name, ns) in tr.self_times() {
            out.notes
                .push(format!("self_time {name} {:.3} ms", ns as f64 / 1e6));
        }
        if let Some(path) = &cfg.spans_path {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            tr.write_jsonl(std::io::BufWriter::new(std::fs::File::create(path)?))?;
            out.notes
                .push(format!("spans written to {}", path.display()));
        }
    }

    // The user-visible metrics. The ungated ones (`TAIL_METRICS`) are
    // per-layer metrics of the traced run; the untraced run prints them.
    // The tails spread wider across seeds than any gate bound allows. The
    // medians over all reads or all writes fall in the gap between two
    // populations (the query sizes; slow inserts and fast removes), where
    // a shift of a few samples moves them far. So `p50_ms` is the median
    // read latency of each query size, averaged over the sizes, and
    // inserts and removes are reported apart.
    let lat: Vec<f64> = open_log.latency_ms.iter().map(|s| s.1).collect();
    let k = w.sizes.len();
    let reads_of = |c: usize| -> Vec<f64> {
        open_log
            .latency_ms
            .iter()
            .filter(|(i, _)| i.is_some_and(|i| i as usize % k == c))
            .map(|s| s.1)
            .collect()
    };
    let size_p50 = (0..k).map(|c| quantile(&reads_of(c), 0.5)).sum::<f64>() / k as f64;
    let reads = open_log.latency_ms.iter().filter(|s| s.0.is_some()).count();
    let mut e2e = vec![
        ("qps", "1/s", median(&round_qps), reads_ok.iter().sum()),
        ("p50_ms", "ms", size_p50, reads),
        ("p50_all_ms", "ms", quantile(&lat, 0.5), lat.len()),
        ("p99_ms", "ms", quantile(&lat, 0.99), lat.len()),
        ("index_mb", "MB", index_mb, 1),
        (
            "insert_visible_p50_ms",
            "ms",
            quantile(&inserts, 0.5),
            inserts.len(),
        ),
        (
            "remove_visible_p50_ms",
            "ms",
            quantile(&removes, 0.5),
            removes.len(),
        ),
        (
            "write_visible_p50_ms",
            "ms",
            quantile(&visible, 0.5),
            visible.len(),
        ),
        (
            "write_visible_p90_ms",
            "ms",
            quantile(&visible, 0.9),
            visible.len(),
        ),
    ];
    if !cfg.trace {
        e2e.insert(0, ("setup_s", "s", median(&setup.times), setup.times.len()));
    }
    for (name, unit, value, samples) in e2e {
        if TAIL_METRICS.contains(&name) == cfg.trace {
            out.push(name, unit, value, samples);
        } else {
            out.notes
                .push(format!("{name:<32} {value:>14.4} {unit:<6} n={samples}"));
        }
    }
    Ok(out)
}
