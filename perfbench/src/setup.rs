//! Set-up: from the generated database to a serving engine, timed as a
//! whole (`setup_s`) or layer by layer (traced run).

use crate::trace::Tracer;
use crate::Outcome;
use graph_core::par::Pool;
use graph_core::Graph;
use std::time::Instant;
use treepi::{Engine, TreePiIndex, TreePiParams};

/// The served index and what it took to get it.
pub struct Setup {
    /// The serving engine, from the last set-up.
    pub engine: Engine,
    /// Seconds of each timed set-up.
    pub times: Vec<f64>,
}

/// Untraced set-up, `reps` times: build at `threads`, save and load the
/// index through a buffer, start the engine. The last engine is kept.
pub fn set_up(db: &[Graph], threads: usize, reps: usize) -> std::io::Result<Setup> {
    let mut times = Vec::new();
    let mut engine = None;
    for _ in 0..reps.max(1) {
        let input = db.to_vec();
        drop(engine.take());
        let t0 = Instant::now();
        let built = TreePiIndex::build_with_threads(input, TreePiParams::default(), threads);
        let mut buf = Vec::new();
        built.save(&mut buf)?;
        let loaded = TreePiIndex::load(&mut buf.as_slice())?;
        engine = Some(Engine::new(loaded, threads));
        times.push(t0.elapsed().as_secs_f64());
        drop(built);
    }
    Ok(Setup {
        engine: engine.expect("at least one set-up"),
        times,
    })
}

/// Traced set-up: the build's layers one by one, then the whole build,
/// persistence through a buffer, and the engine.
pub fn set_up_traced(
    db: &[Graph],
    threads: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> std::io::Result<Setup> {
    let params = TreePiParams::default();
    let pool = Pool::new(threads);
    let off = obs::Shard::disabled();
    let mine = tr.open("build.mine", None, None);
    let (mined, _) =
        mining::mine_frequent_trees_pool_obs(db, &params.sigma, &params.limits, &pool, &off);
    tr.close(mine);
    let shrink = tr.open("build.shrink", None, None);
    let kept = mining::shrink_features_pool(mined, params.gamma, &pool);
    tr.close(shrink);
    let sigs = tr.open("build.sigs", None, None);
    let all_sigs: Vec<_> = db.iter().map(treepi::sig::graph_sigs).collect();
    tr.close(sigs);
    drop((kept, all_sigs));
    let input = db.to_vec();
    let total = tr.open("build.total", None, None);
    let built = TreePiIndex::build_with_pool_obs(input, params, &pool, &off);
    tr.close(total);
    let mut buf = Vec::new();
    let save = tr.open("persist.save", None, None);
    built.save(&mut buf)?;
    tr.close(save);
    let load = tr.open("persist.load", None, None);
    let loaded = TreePiIndex::load(&mut buf.as_slice())?;
    tr.close(load);
    out.push("build.mine_s", "s", tr.secs(mine), 1);
    out.push("build.shrink_s", "s", tr.secs(shrink), 1);
    out.push("build.sigs_s", "s", tr.secs(sigs), 1);
    out.push("build.total_s", "s", tr.secs(total), 1);
    out.push("build.features", "count", built.feature_count() as f64, 1);
    out.push("persist.save_s", "s", tr.secs(save), 1);
    out.push("persist.load_s", "s", tr.secs(load), 1);
    out.push("persist.file_mb", "MB", buf.len() as f64 / 1e6, 1);
    Ok(Setup {
        engine: Engine::new(loaded, threads),
        times: Vec::new(),
    })
}
