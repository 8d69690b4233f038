//! (1+ε)-approximate minimum cut via tree packing
//! (Corollary 1.2 / Fact 4.1, Theorem 7.6.1 of Ghaffari's thesis;
//! algorithmic core from Karger '96 / Thorup).
//!
//! Pipeline:
//!
//! 1. **Skeleton** — sample each edge with probability
//!    `p = min(1, c₀·ln n / (ε²·ĉ))` (Karger sparsification): cuts are
//!    preserved to `(1 ± ε)` w.h.p. while the skeleton min cut drops to
//!    `O(log n / ε²)`, so few trees suffice.
//! 2. **Greedy tree packing** — repeatedly take a minimum spanning tree
//!    of the skeleton w.r.t. edge *loads* (times used so far). Karger:
//!    w.h.p. some packed tree 2-respects a `(1+ε)`-minimum cut.
//! 3. **Respecting cuts** — for each packed tree, compute the exact
//!    minimum 1-respecting and 2-respecting cut *of the original
//!    weighted graph*: `cut1[v]` via subtree sums and
//!    `cut2(u,v) = cut1[u] + cut1[v] − 2·M[u][v]`, where `M[u][v]`
//!    accumulates, for every edge, the pairs of tree-path nodes it
//!    co-crosses (an edge `(x,y)` crosses exactly the subtrees rooted
//!    along the tree path `x⇝y`).
//! 4. The estimate `ĉ` is settled by a doubling loop (start at the
//!    minimum degree cut; re-run once if the found cut is much smaller).
//!
//! Distributed cost accounting: each packed tree costs one
//! MST-via-shortcuts computation plus one partwise aggregation for the
//! subtree sums (`Õ(k_D)` each); the `O(n²)` 2-respecting scan is
//! evaluated centrally with its round cost charged per GH16's
//! distributed implementation — see the README's Substitutions section.

use crate::mst::{mst_via_shortcuts, MstConfig, MstError};
use lcs_congest::{ceil_log2, FaultPlan, SimError};
use lcs_core::{detect_and_excise, DegradedOutcome};
use lcs_graph::{kruskal, stoer_wagner, Graph, NodeId, WeightedGraph};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Min-cut configuration.
#[derive(Debug, Clone)]
pub struct MinCutConfig {
    /// Approximation slack ε.
    pub epsilon: f64,
    /// Seed for skeleton sampling.
    pub seed: u64,
    /// Sparsification constant `c₀` (theory wants ~12; smaller is
    /// faster and usually still exact at bench scales).
    pub sampling_constant: f64,
    /// Number of packed trees per estimate round (`None` = `⌈3·ln n⌉`).
    pub trees: Option<usize>,
    /// MST configuration used when accounting distributed rounds. In
    /// [`ExecutionMode::Simulated`](lcs_congest::ExecutionMode) the MST
    /// subroutine runs all of its Boruvka aggregations through one
    /// engine [`Session`](lcs_congest::Session) (its `shards` field
    /// sizes the session's worker pool).
    pub mst: MstConfig,
}

impl Default for MinCutConfig {
    fn default() -> Self {
        MinCutConfig {
            epsilon: 0.2,
            seed: 0xCA7,
            sampling_constant: 6.0,
            trees: None,
            mst: MstConfig::default(),
        }
    }
}

/// Min-cut failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinCutError {
    /// Graph has fewer than two nodes or is disconnected.
    NotCuttable,
    /// Propagated MST error (round accounting).
    Mst(MstError),
    /// Fault-handling failure (detection phase).
    Sim(SimError),
}

impl fmt::Display for MinCutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MinCutError::NotCuttable => write!(f, "graph has no proper cut (n < 2)"),
            MinCutError::Mst(e) => write!(f, "mst subroutine failed: {e}"),
            MinCutError::Sim(e) => write!(f, "fault handling failed: {e}"),
        }
    }
}

impl std::error::Error for MinCutError {}

impl From<MstError> for MinCutError {
    fn from(e: MstError) -> Self {
        MinCutError::Mst(e)
    }
}

/// Result of the approximate min cut.
#[derive(Debug, Clone)]
pub struct MinCutOutcome {
    /// The best cut weight found.
    pub weight: u64,
    /// One side of the best cut found.
    pub side: Vec<NodeId>,
    /// Trees packed in total.
    pub trees_packed: usize,
    /// Rounds charged (tree computations + aggregations).
    pub total_rounds: u64,
    /// Estimate-loop iterations.
    pub estimate_iterations: u32,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](MstConfig::faults) on its MST subroutine: what
    /// graceful degradation excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

/// A rooted tree view with Euler intervals for subtree tests.
struct RootedTree {
    parent: Vec<Option<NodeId>>,
    tin: Vec<u32>,
    tout: Vec<u32>,
    order: Vec<NodeId>, // nodes in DFS order
}

impl RootedTree {
    fn new(g_edges: &[(NodeId, NodeId)], n: usize, root: NodeId) -> Self {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in g_edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut parent = vec![None; n];
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut order = Vec::with_capacity(n);
        let mut clock = 0u32;
        // Iterative DFS.
        let mut stack: Vec<(NodeId, usize, bool)> = vec![(root, 0, false)];
        let mut visited = vec![false; n];
        visited[root as usize] = true;
        while let Some((v, idx, _)) = stack.pop() {
            if idx == 0 {
                tin[v as usize] = clock;
                clock += 1;
                order.push(v);
            }
            if idx < adj[v as usize].len() {
                stack.push((v, idx + 1, true));
                let w = adj[v as usize][idx];
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    parent[w as usize] = Some(v);
                    stack.push((w, 0, false));
                }
            } else {
                tout[v as usize] = clock;
            }
        }
        RootedTree {
            parent,
            tin,
            tout,
            order,
        }
    }

    /// Is `x` in the subtree of `v`?
    #[inline]
    fn in_subtree(&self, v: NodeId, x: NodeId) -> bool {
        self.tin[v as usize] <= self.tin[x as usize] && self.tin[x as usize] < self.tout[v as usize]
    }

    /// Tree path from `x` up to the root as node list.
    fn path_to_root(&self, x: NodeId) -> Vec<NodeId> {
        let mut path = vec![x];
        let mut cur = x;
        while let Some(p) = self.parent[cur as usize] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Nodes `v` (≠ root) whose subtree the edge `(x, y)` crosses: the
    /// nodes strictly on the tree path between `x` and `y`, excluding
    /// their LCA.
    fn crossing_nodes(&self, x: NodeId, y: NodeId) -> Vec<NodeId> {
        let px = self.path_to_root(x);
        let py = self.path_to_root(y);
        // Find LCA: deepest common suffix element.
        let mut ix = px.len();
        let mut iy = py.len();
        while ix > 0 && iy > 0 && px[ix - 1] == py[iy - 1] {
            ix -= 1;
            iy -= 1;
        }
        let mut nodes: Vec<NodeId> = Vec::with_capacity(ix + iy);
        nodes.extend_from_slice(&px[..ix]);
        nodes.extend_from_slice(&py[..iy]);
        nodes
    }
}

/// Exact minimum 1- or 2-respecting cut of `wg` with respect to the
/// spanning tree given by `tree_edges`. Returns `(weight, side)`.
pub fn min_respecting_cut(
    wg: &WeightedGraph,
    tree_edges: &[(NodeId, NodeId)],
    root: NodeId,
) -> (u64, Vec<NodeId>) {
    let g = wg.graph();
    let n = g.n();
    let t = RootedTree::new(tree_edges, n, root);

    // cut1[v] (v ≠ root) and the co-crossing matrix M.
    let mut cut1 = vec![0u64; n];
    let mut m = vec![0u64; n * n];
    for e in g.edge_ids() {
        let (x, y) = g.edge_endpoints(e);
        let w = wg.weight(e);
        let crossing = t.crossing_nodes(x, y);
        for &u in &crossing {
            cut1[u as usize] += w;
        }
        for &u in &crossing {
            for &v in &crossing {
                m[u as usize * n + v as usize] += w;
            }
        }
    }

    // 1-respecting.
    let mut best = u64::MAX;
    let mut best_side: Vec<NodeId> = Vec::new();
    let subtree_side =
        |v: NodeId| -> Vec<NodeId> { (0..n as u32).filter(|&x| t.in_subtree(v, x)).collect() };
    for &v in &t.order {
        if v == root {
            continue;
        }
        if cut1[v as usize] < best {
            best = cut1[v as usize];
            best_side = subtree_side(v);
        }
    }
    // 2-respecting.
    for &u in &t.order {
        if u == root {
            continue;
        }
        for &v in &t.order {
            if v == root || t.tin[v as usize] <= t.tin[u as usize] {
                continue; // enumerate unordered pairs once
            }
            let c2 = cut1[u as usize] + cut1[v as usize] - 2 * m[u as usize * n + v as usize];
            if c2 < best && c2 > 0 {
                // Side = S_u Δ S_v.
                let su: std::collections::HashSet<NodeId> = subtree_side(u).into_iter().collect();
                let sv: std::collections::HashSet<NodeId> = subtree_side(v).into_iter().collect();
                let side: Vec<NodeId> = su.symmetric_difference(&sv).copied().collect();
                if !side.is_empty() && side.len() < n {
                    best = c2;
                    best_side = side;
                }
            }
        }
    }
    (best, best_side)
}

/// Greedy tree packing: `count` spanning trees of `skeleton`, each a
/// minimum spanning tree with respect to current edge loads.
fn pack_trees(skeleton: &Graph, count: usize) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut loads: Vec<u64> = vec![0; skeleton.m()];
    let mut trees = Vec::with_capacity(count);
    for _ in 0..count {
        let wg = WeightedGraph::new(skeleton.clone(), loads.clone())
            .expect("load vector sized to skeleton");
        let msf = kruskal(&wg);
        let edges: Vec<(NodeId, NodeId)> = msf
            .edges
            .iter()
            .map(|&e| skeleton.edge_endpoints(e))
            .collect();
        for &e in &msf.edges {
            loads[e.index()] += 1;
        }
        trees.push(edges);
    }
    trees
}

/// Runs the (1+ε)-approximate min cut.
///
/// With a [`FaultPlan`](MstConfig::faults) attached to `cfg.mst`,
/// crash-stopped nodes are detected and excised first (see
/// [`lcs_core::degrade`]) and the cut is computed on the surviving
/// subgraph — the returned side carries **original** node ids and the
/// outcome a [`DegradedOutcome`].
///
/// # Errors
///
/// [`MinCutError::NotCuttable`] for `n < 2` or disconnected inputs (or
/// fewer than two survivors after excision);
/// [`MinCutError::Sim`] when the detection phase fails.
pub fn approximate_min_cut(
    wg: &WeightedGraph,
    cfg: &MinCutConfig,
) -> Result<MinCutOutcome, MinCutError> {
    let g = wg.graph();
    let n = g.n();
    if n < 2 || !lcs_graph::is_connected(g) {
        return Err(MinCutError::NotCuttable);
    }
    if let Some(plan) = &cfg.mst.faults {
        return degraded_min_cut(wg, cfg, &plan.clone());
    }
    let ln_n = (n as f64).ln().max(1.0);
    let trees_per_round = cfg.trees.unwrap_or((3.0 * ln_n).ceil() as usize).max(1);

    // Initial estimate: minimum degree cut.
    let mut best: u64 = u64::MAX;
    let mut best_side: Vec<NodeId> = Vec::new();
    for v in g.nodes() {
        let deg_cut: u64 = g.neighbors_with_edges(v).map(|(_, e)| wg.weight(e)).sum();
        if deg_cut < best {
            best = deg_cut;
            best_side = vec![v];
        }
    }

    // Round cost of one MST-via-shortcuts (used per packed tree).
    let mst_probe = mst_via_shortcuts(wg, &cfg.mst)?;
    let per_tree_rounds = mst_probe.total_rounds
        + 2 * (ceil_log2(n) as u64) * (mst_probe.total_rounds / mst_probe.phases.max(1) as u64);

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut total_rounds = 0u64;
    let mut trees_packed = 0usize;
    let mut iterations = 0u32;
    let mut estimate = best.max(1);
    loop {
        iterations += 1;
        // Skeleton: weighted sampling — edge kept with probability
        // 1 − (1−p)^w (a weight-w bundle of parallel unit edges).
        let p =
            (cfg.sampling_constant * ln_n / (cfg.epsilon * cfg.epsilon * estimate as f64)).min(1.0);
        let kept: Vec<(NodeId, NodeId)> = g
            .edge_ids()
            .filter(|&e| {
                let w = wg.weight(e) as f64;
                let keep_prob = 1.0 - (1.0 - p).powf(w);
                rng.gen_bool(keep_prob.clamp(0.0, 1.0))
            })
            .map(|e| g.edge_endpoints(e))
            .collect();
        let skeleton = Graph::from_edges(n, &kept).expect("skeleton nodes in range");
        if !lcs_graph::is_connected(&skeleton) {
            // Sampling too sparse (estimate too big): the min cut is
            // tiny; halve the estimate and retry.
            estimate = (estimate / 2).max(1);
            if p >= 1.0 {
                break; // skeleton == G and still disconnected: impossible here
            }
            continue;
        }
        // Pack trees and evaluate respecting cuts on the ORIGINAL graph.
        let trees = pack_trees(&skeleton, trees_per_round);
        trees_packed += trees.len();
        total_rounds += trees.len() as u64 * per_tree_rounds;
        for tree in &trees {
            let (w, side) = min_respecting_cut(wg, tree, 0);
            if w < best && !side.is_empty() && side.len() < n {
                best = w;
                best_side = side;
            }
        }
        // Doubling loop: if the found cut is much smaller than the
        // estimate the sampling rate was off; re-run with the better
        // estimate. Otherwise we are done.
        if best >= estimate / 2 || p >= 1.0 {
            break;
        }
        estimate = best.max(1);
        if iterations > 40 {
            break;
        }
    }

    Ok(MinCutOutcome {
        weight: best,
        side: best_side,
        trees_packed,
        total_rounds,
        estimate_iterations: iterations,
        degraded: None,
    })
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network,
/// excise the dead, and pack trees on the surviving subgraph (which the
/// detection BFS guarantees is connected). The inner MST subroutine
/// re-derives the diameter (`diameter: None`) because excision can
/// lengthen shortest paths; detection rounds are charged on top.
fn degraded_min_cut(
    wg: &WeightedGraph,
    cfg: &MinCutConfig,
    plan: &FaultPlan,
) -> Result<MinCutOutcome, MinCutError> {
    let g = wg.graph();
    let exc = detect_and_excise(g, plan, cfg.mst.seed, cfg.mst.shards).map_err(MinCutError::Sim)?;

    if exc.is_trivial() {
        let inner = MinCutConfig {
            mst: MstConfig {
                faults: None,
                ..cfg.mst.clone()
            },
            ..cfg.clone()
        };
        let mut out = approximate_min_cut(wg, &inner)?;
        out.total_rounds += exc.extra_rounds;
        out.degraded = Some(exc.outcome());
        return Ok(out);
    }

    if exc.survivors.len() < 2 {
        return Err(MinCutError::NotCuttable);
    }
    let inner = MinCutConfig {
        mst: MstConfig {
            faults: None,
            diameter: None, // excision can stretch the diameter
            ..cfg.mst.clone()
        },
        ..cfg.clone()
    };
    let sub_wg = exc.induced_weighted(wg);
    let sub = approximate_min_cut(&sub_wg, &inner)?;
    let side: Vec<NodeId> = sub
        .side
        .iter()
        .map(|&v| exc.survivors[v as usize])
        .collect();
    Ok(MinCutOutcome {
        weight: sub.weight,
        side,
        trees_packed: sub.trees_packed,
        total_rounds: sub.total_rounds + exc.extra_rounds,
        estimate_iterations: sub.estimate_iterations,
        degraded: Some(exc.outcome()),
    })
}

/// Convenience: ratio between the approximate result and the exact
/// Stoer–Wagner cut.
pub fn approximation_ratio(wg: &WeightedGraph, outcome: &MinCutOutcome) -> f64 {
    let exact = stoer_wagner(wg).map(|c| c.weight).unwrap_or(0);
    if exact == 0 {
        return 1.0;
    }
    outcome.weight as f64 / exact as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{cut_weight, gnp_connected, HighwayGraph, HighwayParams};

    fn weighted_fixture(seed: u64) -> WeightedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = gnp_connected(40, 0.12, &mut rng);
        WeightedGraph::with_random_weights(g, 20, &mut rng)
    }

    #[test]
    fn respecting_cut_on_a_path_tree_is_exact() {
        // Graph = weighted cycle; tree = the path (cycle minus one
        // edge). Every cut of a cycle is 2-respecting w.r.t. that path.
        let wg = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 3), (1, 2, 1), (2, 3, 5), (3, 4, 2), (4, 0, 4)],
        )
        .unwrap();
        let tree: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let (w, side) = min_respecting_cut(&wg, &tree, 0);
        let exact = stoer_wagner(&wg).unwrap().weight;
        assert_eq!(w, exact);
        assert_eq!(cut_weight(&wg, &side), w);
    }

    #[test]
    fn approx_matches_exact_on_bridge_graph() {
        let wg = WeightedGraph::from_weighted_edges(
            6,
            &[
                (0, 1, 9),
                (1, 2, 9),
                (2, 0, 9),
                (3, 4, 9),
                (4, 5, 9),
                (5, 3, 9),
                (2, 3, 2),
            ],
        )
        .unwrap();
        let cfg = MinCutConfig {
            mst: MstConfig {
                diameter: Some(3),
                ..MstConfig::default()
            },
            ..MinCutConfig::default()
        };
        let out = approximate_min_cut(&wg, &cfg).unwrap();
        assert_eq!(out.weight, 2);
        assert_eq!(cut_weight(&wg, &out.side), 2);
    }

    #[test]
    fn ratio_within_epsilon_on_random_graphs() {
        let mut worst: f64 = 1.0;
        for seed in 0..6 {
            let wg = weighted_fixture(seed);
            let cfg = MinCutConfig {
                epsilon: 0.25,
                seed,
                ..MinCutConfig::default()
            };
            let out = approximate_min_cut(&wg, &cfg).unwrap();
            // The returned side must evaluate to the claimed weight.
            assert_eq!(cut_weight(&wg, &out.side), out.weight, "seed {seed}");
            let r = approximation_ratio(&wg, &out);
            assert!(r >= 1.0 - 1e-9, "cannot beat the exact cut");
            worst = worst.max(r);
        }
        assert!(
            worst <= 1.25 + 1e-9,
            "worst ratio {worst} exceeded 1 + epsilon"
        );
    }

    #[test]
    fn highway_family_cut() {
        // The highway family's min cut is small (a path end column).
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 16,
            diameter: 4,
        })
        .unwrap();
        let wg = WeightedGraph::new(hw.graph().clone(), vec![1; hw.graph().m()]).unwrap();
        let cfg = MinCutConfig {
            mst: MstConfig {
                diameter: Some(4),
                ..MstConfig::default()
            },
            ..MinCutConfig::default()
        };
        let out = approximate_min_cut(&wg, &cfg).unwrap();
        let exact = stoer_wagner(&wg).unwrap().weight;
        assert_eq!(out.weight, exact);
        assert!(out.total_rounds > 0);
        assert!(out.trees_packed > 0);
    }

    #[test]
    fn degraded_min_cut_excises_and_matches_stoer_wagner() {
        use lcs_congest::{Crash, FaultPlan};
        // Two weight-9 triangles joined by a weight-2 bridge; node 4
        // (in the right triangle) crash-stops under lossy, corrupting
        // links. The survivors stay connected through the bridge.
        let wg = WeightedGraph::from_weighted_edges(
            6,
            &[
                (0, 1, 9),
                (1, 2, 9),
                (2, 0, 9),
                (3, 4, 9),
                (4, 5, 9),
                (5, 3, 9),
                (2, 3, 2),
            ],
        )
        .unwrap();
        let plan = FaultPlan {
            drop_rate: 0.05,
            corrupt_rate: 0.05,
            crashes: vec![Crash {
                node: 4,
                at_round: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let cfg = MinCutConfig {
            mst: MstConfig {
                diameter: Some(3),
                faults: Some(plan),
                ..MstConfig::default()
            },
            ..MinCutConfig::default()
        };
        let out = approximate_min_cut(&wg, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("fault plan reports degradation");
        assert_eq!(deg.excluded_nodes, vec![4]);
        assert!(deg.extra_rounds > 0);
        assert!(out.side.iter().all(|&v| v != 4), "excised node in no side");

        // Differential reference: Stoer–Wagner on the survivors'
        // induced subgraph (survivors 0,1,2,3,5 → sub ids 0..=4).
        let sub = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 9), (1, 2, 9), (0, 2, 9), (3, 4, 9), (2, 3, 2)],
        )
        .unwrap();
        let exact = stoer_wagner(&sub).unwrap().weight;
        assert_eq!(out.weight, exact);
        assert_eq!(out.weight, 2, "the bridge is still the min cut");
        let side_sub: Vec<NodeId> = out
            .side
            .iter()
            .map(|&v| if v == 5 { 4 } else { v })
            .collect();
        assert_eq!(cut_weight(&sub, &side_sub), out.weight);
    }

    #[test]
    fn degraded_min_cut_without_permanent_crashes_matches_fault_free() {
        use lcs_congest::FaultPlan;
        let wg = weighted_fixture(3);
        let clean_cfg = MinCutConfig {
            epsilon: 0.25,
            seed: 3,
            ..MinCutConfig::default()
        };
        let clean = approximate_min_cut(&wg, &clean_cfg).unwrap();
        let faulty_cfg = MinCutConfig {
            mst: MstConfig {
                faults: Some(FaultPlan {
                    drop_rate: 0.10,
                    corrupt_rate: 0.05,
                    ..FaultPlan::default()
                }),
                ..clean_cfg.mst.clone()
            },
            ..clean_cfg.clone()
        };
        let out = approximate_min_cut(&wg, &faulty_cfg).unwrap();
        assert_eq!(out.weight, clean.weight);
        assert_eq!(out.side, clean.side);
        let deg = out.degraded.expect("plan reports degradation");
        assert!(deg.excluded_nodes.is_empty());
        assert_eq!(out.total_rounds, clean.total_rounds + deg.extra_rounds);
    }

    #[test]
    fn rejects_uncuttable_inputs() {
        let single = WeightedGraph::from_weighted_edges(1, &[]).unwrap();
        assert_eq!(
            approximate_min_cut(&single, &MinCutConfig::default()).unwrap_err(),
            MinCutError::NotCuttable
        );
        let disc = WeightedGraph::from_weighted_edges(4, &[(0, 1, 1), (2, 3, 1)]).unwrap();
        assert_eq!(
            approximate_min_cut(&disc, &MinCutConfig::default()).unwrap_err(),
            MinCutError::NotCuttable
        );
    }
}

#[cfg(test)]
mod nested_tests {
    use super::*;
    use lcs_graph::cut_weight;

    #[test]
    fn two_respecting_nested_pair_is_found() {
        // Tree = path 0-1-2-3-4 rooted at 0. The min cut {1,2} crosses
        // tree edges (0,1) and (2,3): the 2-respecting pair is the
        // *nested* subtrees of 1 and 3 (side = S_1 Δ S_3 = {1,2}).
        let wg = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 1), (1, 2, 10), (2, 3, 1), (3, 4, 10), (0, 4, 10)],
        )
        .unwrap();
        let tree: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let (w, side) = min_respecting_cut(&wg, &tree, 0);
        assert_eq!(w, 2);
        let mut side = side;
        side.sort_unstable();
        assert!(side == vec![1, 2] || side == vec![0, 3, 4]);
        assert_eq!(cut_weight(&wg, &side), 2);
        // Exact reference agrees.
        assert_eq!(stoer_wagner(&wg).unwrap().weight, 2);
    }

    #[test]
    fn one_respecting_beats_two_respecting_when_optimal_is_a_subtree() {
        // Min cut isolates node 4 (subtree of the path tree): a pure
        // 1-respecting cut.
        let wg = WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 10), (1, 2, 10), (2, 3, 10), (3, 4, 1), (0, 4, 1)],
        )
        .unwrap();
        let tree: Vec<(NodeId, NodeId)> = vec![(0, 1), (1, 2), (2, 3), (3, 4)];
        let (w, side) = min_respecting_cut(&wg, &tree, 0);
        assert_eq!(w, 2);
        assert!(side == vec![4] || side.len() == 4);
    }
}
