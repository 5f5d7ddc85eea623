//! Inputs made from the benchmark seed: the query pool, the request
//! scripts, the scan oracle, and the answer check.

use crate::workload::Workload;
use datagen::{extract_queries, generate_chem, ChemParams};
use graph_core::Graph;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use treepi::{scan_support, TreePiIndex};

/// The chem database Γ_n.
pub fn database(n: usize, seed: u64) -> Vec<Graph> {
    generate_chem(&ChemParams::sized(n), &mut ChaCha8Rng::seed_from_u64(seed))
}

/// An RNG for one named use of the benchmark seed, so adding a use never
/// shifts the stream of another.
pub fn rng_for(seed: u64, workload: &str, stage: &str) -> ChaCha8Rng {
    let mut h: u64 = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes().chain([b'/']).chain(stage.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    ChaCha8Rng::seed_from_u64(h)
}

/// The workload's distinct queries, each cut from a random database graph.
/// Sizes are stratified: query `i` has `w.sizes[i % w.sizes.len()]`
/// edges, so every seed's pool holds each size equally often and the
/// size mix (which sets most of a query's cost) never varies by seed.
pub fn query_pool(db: &[Graph], w: &Workload, pool: usize, seed: u64) -> Vec<Graph> {
    let mut rng = rng_for(seed, w.name, "pool");
    (0..pool)
        .map(|i| {
            let m = w.sizes[i % w.sizes.len()];
            extract_queries(db, m, 1, &mut rng).remove(0)
        })
        .collect()
}

/// The scan oracle's answer for every query, computed on `threads`
/// threads against the freshly built index.
pub fn oracle(index: &TreePiIndex, queries: &[Graph], threads: usize) -> Vec<Vec<u32>> {
    let chunk = queries.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(|q| scan_support(index, q)).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// One scripted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Query pool entry `i`.
    Query(u32),
    /// Insert a clone of database graph `donor`, then probe with query
    /// `probe` (an edge of `donor`) until the clone shows.
    Insert { donor: u32, probe: u32 },
    /// Remove the clone this connection inserted last, then probe with
    /// the probe of that insert until the clone is gone.
    Remove,
}

/// Requests a Zipf picker serves before it re-draws which query holds
/// which rank.
pub const ZIPF_REDRAW: usize = 100;

/// Draws pool indices. Pool entry `i` is of size class `i % classes`.
/// Uniform picks deal each class out in shuffled order without
/// replacement (reshuffling a class when it runs out), one pick of every
/// class per round in a random order, so any stretch of a script holds the
/// classes in equal shares and a script no longer than the pool asks each
/// query at most once. Zipf picks draw ranks with replacement; the query
/// holding each rank is re-drawn every [`ZIPF_REDRAW`] picks, so a run's
/// cost does not hinge on the few queries that happen to rank first.
pub enum Picker {
    /// Shuffled deal per class, and the class order of the current round.
    Uniform {
        decks: Vec<Vec<u32>>,
        next: Vec<usize>,
        round: Vec<usize>,
        at: usize,
    },
    /// Cumulative Zipf weights over ranks, and the query of each rank.
    Zipf {
        cdf: Vec<f64>,
        ranks: Vec<u32>,
        picks: usize,
    },
}

impl Picker {
    /// A picker over `n` entries in `classes` size classes with Zipf
    /// exponent `s` (0 = uniform).
    pub fn new(n: usize, classes: usize, s: f64) -> Self {
        if s == 0.0 {
            let k = classes.clamp(1, n.max(1));
            let decks: Vec<Vec<u32>> = (0..k)
                .map(|c| (c..n).step_by(k).map(|i| i as u32).collect())
                .collect();
            return Picker::Uniform {
                next: decks.iter().map(Vec::len).collect(),
                decks,
                round: (0..k).collect(),
                at: k,
            };
        }
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        Picker::Zipf {
            cdf,
            ranks: (0..n as u32).collect(),
            picks: 0,
        }
    }

    /// Draw one index.
    pub fn pick<R: Rng>(&mut self, rng: &mut R) -> u32 {
        match self {
            Picker::Uniform {
                decks,
                next,
                round,
                at,
            } => {
                if *at == round.len() {
                    round.shuffle(rng);
                    *at = 0;
                }
                let c = round[*at];
                *at += 1;
                if next[c] == decks[c].len() {
                    decks[c].shuffle(rng);
                    next[c] = 0;
                }
                next[c] += 1;
                decks[c][next[c] - 1]
            }
            Picker::Zipf { cdf, ranks, picks } => {
                if *picks % ZIPF_REDRAW == 0 {
                    ranks.shuffle(rng);
                }
                *picks += 1;
                let x = rng.gen::<f64>() * cdf.last().expect("non-empty pool");
                ranks[cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)]
            }
        }
    }
}

/// Write scripts draw donors and make probes through this.
pub struct Writes<'a> {
    db: &'a [Graph],
    /// Index the first probe gets in the query list (the pool's length).
    base: usize,
    /// One probe query per scripted insert.
    pub probes: Vec<Graph>,
}

impl<'a> Writes<'a> {
    /// Probes are numbered after the `base` pool queries.
    pub fn new(db: &'a [Graph], base: usize) -> Self {
        Writes {
            db,
            base,
            probes: Vec::new(),
        }
    }

    /// An insert of a clone of a random database graph, probed by one of
    /// the donor's edges: a single-edge query is answered from its feature
    /// support set, so the probe adds next to nothing to the write's
    /// visibility time, and its answer must hold the clone.
    fn insert<R: Rng>(&mut self, rng: &mut R) -> Op {
        loop {
            let donor = rng.gen_range(0..self.db.len());
            let g = &self.db[donor];
            if g.edge_count() == 0 {
                continue;
            }
            let e = graph_core::EdgeId(rng.gen_range(0..g.edge_count()) as u32);
            let probe = graph_core::edge_subgraph(g, &[e]).graph;
            self.probes.push(probe);
            return Op::Insert {
                donor: donor as u32,
                probe: (self.base + self.probes.len() - 1) as u32,
            };
        }
    }
}

/// `requests` scripted requests dealt round-robin to `conns` connections,
/// so pick order follows send order. Every `write_every`-th request of a
/// connection is a write, alternating insert and remove, so each
/// connection only removes its own clones.
pub fn scripts(
    requests: usize,
    conns: usize,
    picker: &mut Picker,
    write_every: usize,
    writes: &mut Writes<'_>,
    rng: &mut ChaCha8Rng,
) -> Vec<Vec<Op>> {
    let mut out: Vec<Vec<Op>> = vec![Vec::new(); conns];
    let mut inserted = vec![false; conns];
    for g in 0..requests {
        let c = g % conns;
        let k = out[c].len();
        let op = if write_every > 0 && k % write_every == write_every - 1 {
            inserted[c] = !inserted[c];
            if inserted[c] {
                writes.insert(rng)
            } else {
                Op::Remove
            }
        } else {
            Op::Query(picker.pick(rng))
        };
        out[c].push(op);
    }
    out
}

/// A write-only script: `n` alternating inserts and removes.
pub fn write_script(n: usize, writes: &mut Writes<'_>, rng: &mut ChaCha8Rng) -> Vec<Op> {
    (0..n)
        .map(|k| {
            if k % 2 == 0 {
                writes.insert(rng)
            } else {
                Op::Remove
            }
        })
        .collect()
}

/// Is `answer` a correct answer to a query whose scan-oracle answer over
/// the original `n_orig` graphs is `oracle`? Only clones the benchmark
/// inserted are ever removed, so the ids below `n_orig` must equal the
/// oracle exactly, and every other id must be a clone (`donors` maps a
/// clone's id to the graph it copies) whose donor the oracle holds.
pub fn answer_ok(oracle: &[u32], answer: &[u32], n_orig: u32, donors: &HashMap<u32, u32>) -> bool {
    let split = answer.partition_point(|&g| g < n_orig);
    let sorted = answer.windows(2).all(|w| w[0] < w[1]);
    sorted
        && answer[..split] == *oracle
        && answer[split..].iter().all(|g| {
            donors
                .get(g)
                .is_some_and(|d| oracle.binary_search(d).is_ok())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_check_accepts_clones_of_answer_graphs_only() {
        let donors: HashMap<u32, u32> = [(10, 2), (11, 3)].into_iter().collect();
        let oracle = [1, 2];
        assert!(answer_ok(&oracle, &[1, 2], 10, &donors));
        assert!(answer_ok(&oracle, &[1, 2, 10], 10, &donors));
        assert!(
            !answer_ok(&oracle, &[1, 2, 11], 10, &donors),
            "donor 3 is no answer"
        );
        assert!(
            !answer_ok(&oracle, &[1, 2, 12], 10, &donors),
            "unknown clone"
        );
        assert!(!answer_ok(&oracle, &[1], 10, &donors), "missing answer");
        assert!(!answer_ok(&oracle, &[1, 2, 5], 10, &donors), "extra answer");
        assert!(!answer_ok(&oracle, &[2, 1], 10, &donors), "unsorted");
    }

    #[test]
    fn zipf_picker_prefers_low_ranks() {
        let mut p = Picker::new(200, 2, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let picks: Vec<u32> = (0..ZIPF_REDRAW).map(|_| p.pick(&mut rng)).collect();
        assert!(picks.iter().all(|&i| i < 200));
        let mut counts = vec![0usize; 200];
        for &i in &picks {
            counts[i as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = counts[..10].iter().sum();
        assert!(
            head > 40,
            "within one draw the top 10 of 200 take ~50%: {head}"
        );
        let mut u = Picker::new(200, 2, 0.0);
        let mut dealt: Vec<u32> = (0..200).map(|_| u.pick(&mut rng)).collect();
        for round in dealt.chunks(2) {
            assert_eq!(round[0] % 2 + round[1] % 2, 1, "one of each class");
        }
        dealt.sort_unstable();
        assert_eq!(
            dealt,
            (0..200).collect::<Vec<u32>>(),
            "one deal asks each query once"
        );
    }

    #[test]
    fn scripts_alternate_writes_per_connection() {
        let db = database(20, 1);
        let mut writes = Writes::new(&db, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = scripts(
            81,
            2,
            &mut Picker::new(3, 1, 0.0),
            20,
            &mut writes,
            &mut rng,
        );
        assert_eq!(writes.probes.len(), 2);
        for (i, p) in writes.probes.iter().enumerate() {
            assert_eq!(p.edge_count(), 1);
            let Op::Insert { donor, probe } = s[i]
                .iter()
                .find(|o| matches!(o, Op::Insert { .. }))
                .copied()
                .unwrap()
            else {
                unreachable!()
            };
            assert_eq!(probe as usize, 3 + i);
            assert!(graph_core::is_subgraph_isomorphic(p, &db[donor as usize]));
        }
        assert_eq!(s.iter().map(Vec::len).sum::<usize>(), 81);
        for script in &s {
            let writes: Vec<&Op> = script
                .iter()
                .filter(|o| !matches!(o, Op::Query(_)))
                .collect();
            assert_eq!(writes.len(), 2);
            assert!(matches!(writes[0], Op::Insert { .. }));
            assert_eq!(*writes[1], Op::Remove);
        }
    }
}
