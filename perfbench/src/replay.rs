//! Stage-by-stage replay of the query pipeline from outside: the same
//! public calls `TreePiIndex::query_with_pool_obs` makes with default
//! options, one query at a time on one worker, each under its own span.
//! With the engine's per-query RNG the replay must give the engine's
//! answers and funnel counts exactly; [`crate::run`] checks that.

use crate::trace::Tracer;
use graph_core::par::Pool;
use graph_core::Graph;
use rand_chacha::ChaCha8Rng;
use treepi::filter::filter;
use treepi::prune::{center_prune_pool_obs, query_center_distances};
use treepi::sig::{graph_compatible, graph_sigs};
use treepi::verify::verify_all_pool_obs;
use treepi::{
    enumerate_query_features, partition_runs_with, PartitionRuns, QueryStats, TreePiIndex,
};

/// Query-stage span names, in pipeline order.
pub const STAGES: [&str; 7] = [
    "query.shortcut",
    "query.partition_runs",
    "query.sf_enum",
    "query.filter",
    "query.sig",
    "query.prune",
    "query.verify",
];

/// The funnel of one replayed query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Sorted answer ids.
    pub matches: Vec<u32>,
    /// Features in `SF_q`.
    pub sf_features: usize,
    /// Candidates after the support filter.
    pub filtered: usize,
    /// Filter survivors the signature stage killed.
    pub sig_killed: usize,
    /// Candidates after center-distance pruning.
    pub pruned: usize,
    /// Whether the verify stage ran.
    pub verified: bool,
}

impl Funnel {
    /// Whether the engine's stats for the same query agree.
    pub fn agrees(&self, matches: &[u32], s: &QueryStats) -> bool {
        self.matches == matches
            && self.filtered == s.filtered
            && self.sig_killed == s.sig_killed
            && self.pruned == s.pruned
            && self.matches.len() == s.answers
    }
}

/// Replay query `q` (id `qid`) under a `query` span with one child span
/// per stage it reaches.
pub fn replay(
    index: &TreePiIndex,
    q: &Graph,
    qid: u32,
    rng: &mut ChaCha8Rng,
    pool: &Pool,
    tr: &mut Tracer,
) -> Funnel {
    let root = tr.open("query", None, Some(qid));
    let f = stages(index, q, qid, rng, pool, tr, root);
    tr.close(root);
    f
}

fn stages(
    index: &TreePiIndex,
    q: &Graph,
    qid: u32,
    rng: &mut ChaCha8Rng,
    pool: &Pool,
    tr: &mut Tracer,
    root: usize,
) -> Funnel {
    let at = (Some(root), Some(qid));
    let shortcut = tr.time(STAGES[0], at.0, at.1, || {
        let tree_shaped = q.edge_count() + 1 == q.vertex_count();
        let qt = tree_shaped
            .then(|| tree_core::Tree::from_graph(q.clone()).ok())
            .flatten()?;
        let fid = index.feature_by_canon(&tree_core::canonical_string(&qt))?;
        Some(
            index
                .feature(fid)
                .support
                .iter()
                .copied()
                .filter(|&g| index.is_active(g))
                .collect::<Vec<u32>>(),
        )
    });
    if let Some(matches) = shortcut {
        let n = matches.len();
        return Funnel {
            matches,
            sf_features: 1,
            filtered: n,
            pruned: n,
            ..Funnel::default()
        };
    }
    let delta = index.params().delta.resolve(q.edge_count());
    let runs = tr.time(STAGES[1], at.0, at.1, || {
        partition_runs_with(q, index, delta, rng, false)
    });
    let PartitionRuns::Ok {
        min_partition: parts,
        ..
    } = runs
    else {
        return Funnel::default();
    };
    let Some(sf) = tr.time(STAGES[2], at.0, at.1, || enumerate_query_features(index, q)) else {
        return Funnel::default();
    };
    let pq = tr.time(STAGES[3], at.0, at.1, || filter(index, &sf));
    let kept = tr.time(STAGES[4], at.0, at.1, || {
        let qsigs = graph_sigs(q);
        pq.iter()
            .copied()
            .filter(|&g| graph_compatible(&qsigs, index.vertex_sigs(g)))
            .collect::<Vec<u32>>()
    });
    let off = obs::Shard::disabled();
    let (dq, pruned) = tr.time(STAGES[5], at.0, at.1, || {
        let dq = query_center_distances(q, &parts);
        let pruned = center_prune_pool_obs(index, q, &kept, &parts, &dq, pool, 1, &off);
        (dq, pruned)
    });
    let matches = tr.time(STAGES[6], at.0, at.1, || {
        verify_all_pool_obs(index, q, &pruned, &parts, &dq, pool, 1, &off)
    });
    Funnel {
        matches,
        sf_features: sf.len(),
        filtered: pq.len(),
        sig_killed: pq.len() - kept.len(),
        pruned: pruned.len(),
        verified: true,
    }
}
