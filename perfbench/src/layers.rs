//! Per-layer metrics of the traced run: engine throughput, the stage
//! replay's times and funnel, and the serve layers' `STATS` deltas.

use crate::drive::ConnLog;
use crate::replay::{replay, Funnel, STAGES};
use crate::stats::{quantile, ratio, Delta};
use crate::trace::Tracer;
use crate::Outcome;
use graph_core::par::Pool;
use graph_core::Graph;
use treepi::{query_rng, Engine, QueryOptions, QueryResult};

/// Engine throughput at 1 and n workers plus the stage replay, all in
/// process on the freshly set-up index. Returns whether the replay and
/// both engines agreed with each other and with the oracle.
pub fn engine_and_replay(
    engine: &Engine,
    queries: &[Graph],
    oracle: &[Vec<u32>],
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> bool {
    let opts = QueryOptions::default();
    let n = queries.len() as f64;
    let one = Engine::new((*engine.pin()).clone(), 1);
    let span1 = tr.open("engine.qps_1", None, None);
    let (r1, _) = one.query_batch(queries, opts, seed);
    tr.close(span1);
    drop(one);
    let index = engine.pin();
    let pool1 = Pool::new(1);
    let mut funnels: Vec<Funnel> = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        funnels.push(replay(
            &index,
            q,
            i as u32,
            &mut query_rng(seed, i),
            &pool1,
            tr,
        ));
    }
    let spann = tr.open("engine.qps_n", None, None);
    let (rn, _) = engine.query_batch(queries, opts, seed);
    tr.close(spann);
    let same = |a: &[QueryResult]| a.iter().zip(oracle).all(|(r, o)| r.matches == *o);
    let faithful = funnels
        .iter()
        .zip(&r1)
        .all(|(f, r)| f.agrees(&r.matches, &r.stats));
    let ok = faithful && same(&r1) && same(&rn);
    if !ok {
        out.notes.push(format!(
            "MISMATCH: replay faithful={faithful}, engine(1) exact={}, engine(n) exact={}",
            same(&r1),
            same(&rn)
        ));
    }
    out.push("engine.qps_1", "1/s", n / tr.secs(span1), queries.len());
    out.push("engine.qps_n", "1/s", n / tr.secs(spann), queries.len());
    stage_metrics(tr, &funnels, tr.secs(span1), out);
    ok
}

/// Per-stage times and funnel counts of the replay.
fn stage_metrics(tr: &Tracer, funnels: &[Funnel], engine1_s: f64, out: &mut Outcome) {
    let spans = tr.spans();
    let query_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "query")
        .map(|s| s.dur_ns())
        .sum();
    let mut stage_sum_ns = 0u64;
    for stage in STAGES {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == stage)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        let total: f64 = us.iter().sum();
        stage_sum_ns += (total * 1e3) as u64;
        out.push(
            format!("{stage}_p50_us"),
            "us",
            quantile(&us, 0.5),
            us.len(),
        );
        out.push(
            format!("{stage}_p99_us"),
            "us",
            quantile(&us, 0.99),
            us.len(),
        );
        out.push(
            format!("{stage}_share"),
            "ratio",
            ratio(total * 1e3, query_ns as f64),
            us.len(),
        );
    }
    let n = funnels.len();
    let sum = |f: fn(&Funnel) -> usize| funnels.iter().map(f).sum::<usize>() as f64;
    let mean = |f: fn(&Funnel) -> usize| sum(f) / n.max(1) as f64;
    out.push("query.sf_features", "count", mean(|f| f.sf_features), n);
    out.push("query.filtered", "count", mean(|f| f.filtered), n);
    out.push("query.sig_killed", "count", mean(|f| f.sig_killed), n);
    out.push("query.pruned", "count", mean(|f| f.pruned), n);
    out.push("query.answers", "count", mean(|f| f.matches.len()), n);
    out.push(
        "sig.kill_ratio",
        "ratio",
        ratio(sum(|f| f.sig_killed), sum(|f| f.filtered)),
        n,
    );
    let v: Vec<&Funnel> = funnels.iter().filter(|f| f.verified).collect();
    let vsum = |f: fn(&Funnel) -> usize| v.iter().map(|x| f(x)).sum::<usize>() as f64;
    out.push(
        "prune.keep_ratio",
        "ratio",
        ratio(vsum(|f| f.pruned), vsum(|f| f.filtered - f.sig_killed)),
        v.len(),
    );
    out.push(
        "verify.yield",
        "ratio",
        ratio(vsum(|f| f.matches.len()), vsum(|f| f.pruned)),
        v.len(),
    );
    out.push(
        "trace.overhead_ratio",
        "ratio",
        ratio(stage_sum_ns as f64 / 1e9, engine1_s),
        n,
    );
    out.push(
        "trace.stage_coverage",
        "ratio",
        ratio(stage_sum_ns as f64, query_ns as f64),
        n,
    );
}

/// Serve-layer metrics from the `STATS` deltas around the read phases.
pub fn serve_metrics(d: &Delta<'_>, open: &ConnLog, out: &mut Outcome) {
    use obs::names as n;
    let q = d.span(n::SPAN_SERVE_QUEUE_WAIT).count as usize;
    out.push(
        "serve.queue_wait_p50_us",
        "us",
        d.span_quantile_us(n::SPAN_SERVE_QUEUE_WAIT, 0.5),
        q,
    );
    out.push(
        "serve.queue_wait_p99_us",
        "us",
        d.span_quantile_us(n::SPAN_SERVE_QUEUE_WAIT, 0.99),
        q,
    );
    out.push(
        "serve.batch_wait_p50_us",
        "us",
        d.span_quantile_us(n::SPAN_SERVE_BATCH_WAIT, 0.5),
        q,
    );
    out.push(
        "serve.exec_share_p50_us",
        "us",
        d.span_quantile_us(n::SPAN_SERVE_EXEC_SHARE, 0.5),
        q,
    );
    out.push(
        "serve.exec_share_p99_us",
        "us",
        d.span_quantile_us(n::SPAN_SERVE_EXEC_SHARE, 0.99),
        q,
    );
    let w = d.span(n::SPAN_SERVE_WRITE_WAIT).count as usize;
    out.push(
        "serve.write_wait_p99_us",
        "us",
        d.span_quantile_us(n::SPAN_SERVE_WRITE_WAIT, 0.99),
        w,
    );
    let batches = d.counter(n::SERVE_BATCHES);
    out.push(
        "serve.batch_size",
        "count",
        ratio(d.counter(n::SERVE_BATCHED) as f64, batches as f64),
        batches as usize,
    );
    out.push(
        "serve.loop_stalls",
        "count",
        d.counter(n::SERVE_LOOP_STALLS) as f64,
        1,
    );
    let (hits, misses) = (d.counter(n::CACHE_HIT), d.counter(n::CACHE_MISS));
    out.push("cache.hits", "count", hits as f64, 1);
    out.push("cache.misses", "count", misses as f64, 1);
    out.push(
        "cache.hit_ratio",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
        (hits + misses) as usize,
    );
    out.push(
        "cache.invalidations",
        "count",
        d.counter(n::CACHE_INVALIDATIONS) as f64,
        1,
    );
    let applies = d.counter(n::MAINT_APPLY_BATCHES);
    out.push("maint.applies", "count", applies as f64, 1);
    out.push(
        "maint.ops_per_apply",
        "count",
        ratio(d.counter(n::MAINT_APPLIED) as f64, applies as f64),
        applies as usize,
    );
    let a = d.span(n::SPAN_MAINT_APPLY).count as usize;
    out.push(
        "maint.apply_p50_ms",
        "ms",
        d.span_quantile_us(n::SPAN_MAINT_APPLY, 0.5) / 1e3,
        a,
    );
    out.push(
        "maint.apply_p99_ms",
        "ms",
        d.span_quantile_us(n::SPAN_MAINT_APPLY, 0.99) / 1e3,
        a,
    );
    out.push(
        "loadgen.late_p99_ms",
        "ms",
        quantile(&open.late_ms, 0.99),
        open.late_ms.len(),
    );
}
