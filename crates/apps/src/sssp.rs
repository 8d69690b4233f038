//! Shortcut-accelerated single-source shortest paths (demonstration of
//! Corollary 4.2's mechanism).
//!
//! On a weighted constant-diameter graph, plain distributed Bellman–Ford
//! needs as many rounds as the shortest-path **hop** diameter, which can
//! be `Θ(n)` even when the unweighted diameter is `O(1)`. The paper's
//! Corollary 4.2 plugs the shortcuts into Haeupler–Li's machinery; the
//! full hopset construction is out of scope (see the README's
//! Substitutions section). What we build instead isolates the primitive the
//! corollary relies on: interleaving Bellman–Ford edge relaxations with
//! **partwise tree relaxations** — each part tree broadcasts
//! `A_i = min_{v∈S_i}(dist(v) + wdepth_i(v))` and every member updates
//! `dist(u) ← min(dist(u), A_i + wdepth_i(u))`, a valid distance bound
//! realized along tree paths.
//!
//! The result is an *upper bound* on true distances whose stretch
//! depends on the weight of the tree detours; the experiment (E11)
//! reports both the round reduction and the realized stretch against
//! Dijkstra.

use lcs_congest::{ceil_log2, AggOp, FaultPlan, ScheduleCost, Session, SimConfig, SimError};
use lcs_core::{detect_and_excise, DegradedOutcome};
use lcs_graph::{dijkstra, NodeId, WeightedGraph, W_UNREACHABLE};
use lcs_shortcut::{AggregationSetup, Partition, ShortcutSet};
use std::collections::HashMap;

/// Result of the SSSP computation.
#[derive(Debug, Clone)]
pub struct SsspOutcome {
    /// Distance upper bounds per node.
    pub dist: Vec<u64>,
    /// Outer iterations until fixpoint.
    pub iterations: u32,
    /// Rounds charged: one per edge relaxation plus the scheduled
    /// aggregation cost per tree relaxation.
    pub total_rounds: u64,
    /// Max multiplicative stretch vs. exact distances.
    pub max_stretch: f64,
    /// Mean multiplicative stretch over reachable nodes.
    pub mean_stretch: f64,
}

/// Plain distributed Bellman–Ford baseline: exact distances; the round
/// count is the number of synchronous relaxation sweeps until fixpoint
/// (= shortest-path hop radius from the source).
pub fn bellman_ford_rounds(wg: &WeightedGraph, source: NodeId) -> (Vec<u64>, u64) {
    let g = wg.graph();
    let mut dist = vec![W_UNREACHABLE; g.n()];
    dist[source as usize] = 0;
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut changed = false;
        let mut next = dist.clone();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let w = wg.weight(e);
            if dist[u as usize] != W_UNREACHABLE && dist[u as usize] + w < next[v as usize] {
                next[v as usize] = dist[u as usize] + w;
                changed = true;
            }
            if dist[v as usize] != W_UNREACHABLE && dist[v as usize] + w < next[u as usize] {
                next[u as usize] = dist[v as usize] + w;
                changed = true;
            }
        }
        dist = next;
        if !changed {
            break;
        }
    }
    (dist, rounds)
}

/// Weighted depths of every tree node from the tree root, per part tree.
fn weighted_depths(wg: &WeightedGraph, setup: &AggregationSetup) -> Vec<HashMap<NodeId, u64>> {
    let g = wg.graph();
    setup
        .trees
        .iter()
        .map(|tree| {
            // Members carry parent pointers in arbitrary order: build
            // children lists and BFS down from the root.
            let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
            for &(v, parent) in &tree.members {
                if let Some(p) = parent {
                    children.entry(p).or_default().push(v);
                }
            }
            let mut depth: HashMap<NodeId, u64> = HashMap::new();
            depth.insert(tree.root, 0);
            let mut queue = std::collections::VecDeque::from([tree.root]);
            while let Some(p) = queue.pop_front() {
                let dp = depth[&p];
                for &v in children.get(&p).map(|c| c.as_slice()).unwrap_or(&[]) {
                    let e = g.edge_between(p, v).expect("tree edge");
                    depth.insert(v, dp + wg.weight(e));
                    queue.push_back(v);
                }
            }
            depth
        })
        .collect()
}

/// Runs the interleaved relaxation. `max_iterations` caps the outer
/// loop (pass `n` for guaranteed convergence to the fixpoint of the
/// combined relaxation).
pub fn shortcut_sssp(
    wg: &WeightedGraph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    source: NodeId,
    max_iterations: u32,
) -> SsspOutcome {
    let g = wg.graph();
    let n = g.n();
    let setup = AggregationSetup::build(g, partition, shortcuts);
    let depths = weighted_depths(wg, &setup);
    let agg_rounds = ScheduleCost {
        congestion: setup.tree_congestion as u64,
        dilation: setup.tree_depth as u64 + 1,
    }
    .rounds_no_precompute(n.max(2))
        * 2; // convergecast + broadcast
    let _ = ceil_log2(n.max(2));

    let mut dist = vec![W_UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut total_rounds = 0u64;
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let mut changed = false;
        // (a) one Bellman-Ford sweep: 1 round.
        total_rounds += 1;
        let snapshot = dist.clone();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let w = wg.weight(e);
            if snapshot[u as usize] != W_UNREACHABLE && snapshot[u as usize] + w < dist[v as usize]
            {
                dist[v as usize] = snapshot[u as usize] + w;
                changed = true;
            }
            if snapshot[v as usize] != W_UNREACHABLE && snapshot[v as usize] + w < dist[u as usize]
            {
                dist[u as usize] = snapshot[v as usize] + w;
                changed = true;
            }
        }
        // (b) partwise tree relaxation: one scheduled aggregation.
        total_rounds += agg_rounds;
        for (tree, depth) in setup.trees.iter().zip(depths.iter()) {
            let mut a = W_UNREACHABLE;
            for &(v, _) in &tree.members {
                if partition.part_of(v) == Some(tree.part as u32)
                    && dist[v as usize] != W_UNREACHABLE
                {
                    a = a.min(dist[v as usize] + depth[&v]);
                }
            }
            if a == W_UNREACHABLE {
                continue;
            }
            for &(v, _) in &tree.members {
                if partition.part_of(v) == Some(tree.part as u32) {
                    let cand = a + depth[&v];
                    if cand < dist[v as usize] {
                        dist[v as usize] = cand;
                        changed = true;
                    }
                }
            }
        }
        if !changed || iterations >= max_iterations {
            break;
        }
    }

    // Stretch against Dijkstra.
    let exact = dijkstra(wg, source);
    let mut max_stretch = 1.0f64;
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for v in 0..n {
        if exact[v] == W_UNREACHABLE || exact[v] == 0 {
            continue;
        }
        debug_assert!(dist[v] >= exact[v], "estimates are upper bounds");
        let s = dist[v] as f64 / exact[v] as f64;
        max_stretch = max_stretch.max(s);
        sum += s;
        count += 1;
    }
    SsspOutcome {
        dist,
        iterations,
        total_rounds,
        max_stretch,
        mean_stretch: if count == 0 { 1.0 } else { sum / count as f64 },
    }
}

/// Result of [`shortcut_sssp_simulated`]: the accounted outcome plus
/// the engine-measured cost of the tree relaxations.
#[derive(Debug, Clone)]
pub struct SimulatedSsspOutcome {
    /// The SSSP result (distances, iterations, stretch); its
    /// `total_rounds` counts the *simulated* aggregation rounds plus
    /// one per Bellman–Ford sweep.
    pub outcome: SsspOutcome,
    /// Messages actually exchanged by the tree-relaxation phases (plus,
    /// under a fault plan, the detection phases).
    pub messages: u64,
    /// Per-phase engine statistics from the session (one aggregation
    /// phase per outer iteration).
    pub phase_rounds: Vec<u64>,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](SimConfig::faults): what graceful degradation
    /// excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

/// [`shortcut_sssp`] with the partwise tree relaxations executed
/// **through the CONGEST engine**: one [`Session`] hosts every
/// iteration's aggregation phase (the paper's partwise-aggregation
/// primitive, message for message), so the outcome carries measured
/// rounds and messages instead of only scheduled charges. The
/// Bellman–Ford edge sweeps remain charged at one round each, as in
/// the accounted variant; distances are identical to
/// [`shortcut_sssp`].
///
/// With a [`FaultPlan`](SimConfig::faults) attached, crash-stopped
/// nodes are detected and excised first (see
/// [`lcs_core::degrade`]) and the relaxation runs on the surviving
/// subgraph over its part *fragments*; excised nodes report
/// [`W_UNREACHABLE`] and the outcome carries a [`DegradedOutcome`].
///
/// # Errors
///
/// Propagates engine errors from the aggregation phases;
/// [`SimError::FaultConfig`] when the detection root (node 0) or the
/// SSSP source crashes permanently.
pub fn shortcut_sssp_simulated(
    wg: &WeightedGraph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    source: NodeId,
    max_iterations: u32,
    cfg: &SimConfig,
) -> Result<SimulatedSsspOutcome, SimError> {
    if let Some(plan) = &cfg.faults {
        return degraded_sssp(
            wg,
            partition,
            shortcuts,
            source,
            max_iterations,
            cfg,
            &plan.clone(),
        );
    }
    let g = wg.graph();
    let n = g.n();
    let setup = AggregationSetup::build(g, partition, shortcuts);
    let depths = weighted_depths(wg, &setup);
    let mut session = Session::new(g, cfg.clone());

    let mut dist = vec![W_UNREACHABLE; n];
    dist[source as usize] = 0;
    let mut total_rounds = 0u64;
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let mut changed = false;
        // (a) one Bellman-Ford sweep: 1 round (edge exchange).
        total_rounds += 1;
        let snapshot = dist.clone();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let w = wg.weight(e);
            if snapshot[u as usize] != W_UNREACHABLE && snapshot[u as usize] + w < dist[v as usize]
            {
                dist[v as usize] = snapshot[u as usize] + w;
                changed = true;
            }
            if snapshot[v as usize] != W_UNREACHABLE && snapshot[v as usize] + w < dist[u as usize]
            {
                dist[u as usize] = snapshot[v as usize] + w;
                changed = true;
            }
        }
        // (b) partwise tree relaxation, simulated: every part computes
        // A_i = min over its members of dist(v) + wdepth_i(v) by one
        // convergecast + broadcast over all trees at once.
        let value = |v: NodeId, part: usize| -> u64 {
            match depths[part].get(&v) {
                Some(&d)
                    if partition.part_of(v) == Some(part as u32)
                        && dist[v as usize] != W_UNREACHABLE =>
                {
                    dist[v as usize].saturating_add(d)
                }
                _ => AggOp::Min.identity(),
            }
        };
        let (_, agg) = setup.aggregate_in_session(&mut session, AggOp::Min, &value, true)?;
        total_rounds += agg.stats.rounds;
        for (tree, depth) in setup.trees.iter().zip(depths.iter()) {
            let Some(a) = agg.result_at(tree.root, tree.part as u32) else {
                continue;
            };
            if a == AggOp::Min.identity() {
                continue;
            }
            for &(v, _) in &tree.members {
                if partition.part_of(v) == Some(tree.part as u32) {
                    let cand = a + depth[&v];
                    if cand < dist[v as usize] {
                        dist[v as usize] = cand;
                        changed = true;
                    }
                }
            }
        }
        if !changed || iterations >= max_iterations {
            break;
        }
    }

    let exact = dijkstra(wg, source);
    let mut max_stretch = 1.0f64;
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for v in 0..n {
        if exact[v] == W_UNREACHABLE || exact[v] == 0 {
            continue;
        }
        debug_assert!(dist[v] >= exact[v], "estimates are upper bounds");
        let s = dist[v] as f64 / exact[v] as f64;
        max_stretch = max_stretch.max(s);
        sum += s;
        count += 1;
    }
    Ok(SimulatedSsspOutcome {
        outcome: SsspOutcome {
            dist,
            iterations,
            total_rounds,
            max_stretch,
            mean_stretch: if count == 0 { 1.0 } else { sum / count as f64 },
        },
        messages: session.stats().messages,
        phase_rounds: session.phases().iter().map(|p| p.rounds).collect(),
        degraded: None,
    })
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network,
/// excise the dead, and run the interleaved relaxation on the surviving
/// subgraph. Parts are split into their surviving fragments and the
/// shortcut set is restricted to surviving edges; detection rounds are
/// charged on top (`extra_rounds`). Distances of excised nodes are
/// [`W_UNREACHABLE`]; the stretch statistics compare against Dijkstra
/// **on the survivors** — the honest reference once the dead are gone.
#[allow(clippy::too_many_arguments)]
fn degraded_sssp(
    wg: &WeightedGraph,
    partition: &Partition,
    shortcuts: &ShortcutSet,
    source: NodeId,
    max_iterations: u32,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> Result<SimulatedSsspOutcome, SimError> {
    let g = wg.graph();
    let exc = detect_and_excise(g, plan, cfg.seed, cfg.shards)?;
    let inner_cfg = SimConfig {
        faults: None,
        ..cfg.clone()
    };

    if exc.is_trivial() {
        // Drops, delays, corruption, and transient crashes were all
        // absorbed by the reliable detection layer: relax on the whole
        // graph, charging only the detection overhead.
        let mut out =
            shortcut_sssp_simulated(wg, partition, shortcuts, source, max_iterations, &inner_cfg)?;
        out.outcome.total_rounds += exc.extra_rounds;
        out.messages += exc.messages;
        out.degraded = Some(exc.outcome());
        return Ok(out);
    }

    if exc.new_id[source as usize] == u32::MAX {
        return Err(SimError::FaultConfig {
            reason: format!(
                "SSSP source {source} was excised (crashed or disconnected from the \
                 detection root) — every distance would be unreachable"
            ),
        });
    }

    let sub_wg = exc.induced_weighted(wg);
    let (sub_partition, sub_to_orig) = exc.split_partition(sub_wg.graph(), partition);
    let sub_shortcuts = exc.restrict_shortcuts(g, sub_wg.graph(), shortcuts, &sub_to_orig);
    let sub_source = exc.new_id[source as usize];
    let sub = shortcut_sssp_simulated(
        &sub_wg,
        &sub_partition,
        &sub_shortcuts,
        sub_source,
        max_iterations,
        &inner_cfg,
    )?;

    let mut dist = vec![W_UNREACHABLE; g.n()];
    for (i, &v) in exc.survivors.iter().enumerate() {
        dist[v as usize] = sub.outcome.dist[i];
    }
    Ok(SimulatedSsspOutcome {
        outcome: SsspOutcome {
            dist,
            iterations: sub.outcome.iterations,
            total_rounds: sub.outcome.total_rounds + exc.extra_rounds,
            max_stretch: sub.outcome.max_stretch,
            mean_stretch: sub.outcome.mean_stretch,
        },
        messages: sub.messages + exc.messages,
        phase_rounds: sub.phase_rounds,
        degraded: Some(exc.outcome()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::{centralized_shortcuts, prune_to_trees, KpParams, LargenessRule, OracleMode};
    use lcs_graph::{HighwayGraph, HighwayParams};

    /// Highway instance with light path edges and heavy highway edges:
    /// true shortest paths hug the paths (many hops).
    fn fixture() -> (WeightedGraph, Partition, ShortcutSet) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 40,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let weights: Vec<u64> = g
            .edge_ids()
            .map(|e| {
                let (u, v) = g.edge_endpoints(e);
                if u < hw.highway_first() && v < hw.highway_first() {
                    1 // path edge
                } else {
                    50 // highway edge
                }
            })
            .collect();
        let wg = WeightedGraph::new(g.clone(), weights).unwrap();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        let params = KpParams::new(g.n(), 4, 1.0).unwrap();
        let raw = centralized_shortcuts(
            &g,
            &p,
            params,
            3,
            LargenessRule::Radius,
            OracleMode::PerPart,
        );
        let pruned = prune_to_trees(&g, &p, &raw.shortcuts, params.depth_limit());
        (wg, p, pruned.shortcuts)
    }

    #[test]
    fn estimates_are_sound_upper_bounds() {
        let (wg, p, s) = fixture();
        let out = shortcut_sssp(&wg, &p, &s, 0, 64);
        let exact = dijkstra(&wg, 0);
        for (v, &exact_d) in exact.iter().enumerate() {
            if exact_d != W_UNREACHABLE {
                assert!(out.dist[v] >= exact_d, "node {v}");
                assert_ne!(out.dist[v], W_UNREACHABLE, "node {v} must be reached");
            }
        }
        assert!(out.max_stretch >= 1.0);
    }

    #[test]
    fn anytime_stretch_beats_truncated_bellman_ford() {
        let (wg, p, s) = fixture();
        let (bf_dist, bf_rounds) = bellman_ford_rounds(&wg, 0);
        // Bellman-Ford is exact but needs hop-diameter sweeps.
        let exact = dijkstra(&wg, 0);
        assert_eq!(bf_dist, exact);
        assert!(bf_rounds > 8, "workload must have long hop chains");
        // A small budget (below the hop diameter) of shortcut iterations
        // yields *finite* estimates for every node — the tree relaxation
        // floods whole parts at once — while plain Bellman-Ford at the
        // same budget still misses nodes and is never better pointwise.
        let budget = 3;
        let accel = shortcut_sssp(&wg, &p, &s, 0, budget);
        assert!(
            accel.dist.iter().all(|&d| d != W_UNREACHABLE),
            "every node must have a finite estimate at budget {budget}"
        );
        let truncated = lcs_graph::bounded_hop_distances(&wg, 0, budget as usize);
        let mut strictly_better = false;
        for (v, &trunc_d) in truncated.iter().enumerate() {
            assert!(accel.dist[v] <= trunc_d, "node {v}");
            strictly_better |= accel.dist[v] < trunc_d;
        }
        assert!(strictly_better, "tree relaxation must help somewhere");
        // And exactness arrives as iterations continue.
        let exact_run = shortcut_sssp(&wg, &p, &s, 0, 4096);
        assert!(
            (exact_run.max_stretch - 1.0).abs() < 1e-9,
            "converges to exact, stretch {}",
            exact_run.max_stretch
        );
    }

    #[test]
    fn converges_to_exact_when_trees_are_paths() {
        // Trivial shortcuts on path parts: tree = the path itself, so
        // the tree relaxation is exact within parts.
        let (wg, p, _) = fixture();
        let trivial = lcs_shortcut::trivial_shortcuts(&p);
        let out = shortcut_sssp(&wg, &p, &trivial, 0, 256);
        let exact = dijkstra(&wg, 0);
        assert_eq!(out.dist, exact, "path trees relax exactly");
        assert!((out.max_stretch - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_relaxation_converges_and_measures_messages() {
        let (wg, p, s) = fixture();
        let out = shortcut_sssp_simulated(&wg, &p, &s, 0, 4096, &SimConfig::default()).unwrap();
        let exact = dijkstra(&wg, 0);
        // Same fixpoint as the accounted variant: exact once converged.
        assert!(
            (out.outcome.max_stretch - 1.0).abs() < 1e-9
                || out
                    .outcome
                    .dist
                    .iter()
                    .zip(exact.iter())
                    .all(|(&a, &b)| a >= b),
            "sound upper bounds"
        );
        for (v, &e) in exact.iter().enumerate() {
            if e != W_UNREACHABLE {
                assert!(out.outcome.dist[v] >= e, "node {v}");
            }
        }
        // The engine actually carried the tree relaxations.
        assert!(out.messages > 0, "simulated mode must exchange messages");
        assert_eq!(
            out.phase_rounds.len() as u32,
            out.outcome.iterations,
            "one aggregation phase per iteration"
        );
        // Sharded execution is bit-identical (outcome-level check).
        let sharded = shortcut_sssp_simulated(
            &wg,
            &p,
            &s,
            0,
            4096,
            &SimConfig {
                shards: 3,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sharded.outcome.dist, out.outcome.dist);
        assert_eq!(sharded.messages, out.messages);
        assert_eq!(sharded.phase_rounds, out.phase_rounds);
    }

    #[test]
    fn source_distance_is_zero() {
        let (wg, p, s) = fixture();
        let out = shortcut_sssp(&wg, &p, &s, 5, 32);
        assert_eq!(out.dist[5], 0);
    }

    #[test]
    fn degraded_sssp_matches_dijkstra_on_survivors() {
        use lcs_congest::Crash;
        let (wg, p, s) = fixture();
        // Byzantine-tier plan: lossy + corrupting links, one permanent
        // crash in the middle of a path part (splitting it into two
        // fragments), one transient crash that the rejoin handshake
        // absorbs.
        let plan = FaultPlan {
            drop_rate: 0.08,
            corrupt_rate: 0.04,
            crashes: vec![
                Crash {
                    node: 20,
                    at_round: 0,
                    recover_at: None,
                },
                Crash {
                    node: 57,
                    at_round: 2,
                    recover_at: Some(30),
                },
            ],
            ..FaultPlan::default()
        };
        let cfg = SimConfig {
            faults: Some(plan),
            ..SimConfig::default()
        };
        let out = shortcut_sssp_simulated(&wg, &p, &s, 0, 4096, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("fault plan reports degradation");
        assert!(deg.completed);
        assert!(deg.excluded_nodes.contains(&20), "the crash is excised");
        assert!(
            !deg.excluded_nodes.contains(&57),
            "transient crashes recover; the reliable layer absorbs them"
        );
        assert!(deg.extra_rounds > 0, "detection overhead is charged");

        // Differential reference: Dijkstra on the survivors' induced
        // subgraph, built independently here.
        let g = wg.graph();
        let excluded: std::collections::HashSet<NodeId> =
            deg.excluded_nodes.iter().copied().collect();
        let survivors: Vec<NodeId> = (0..g.n() as NodeId)
            .filter(|v| !excluded.contains(v))
            .collect();
        let mut new_id = vec![u32::MAX; g.n()];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let sub_edges: Vec<(NodeId, NodeId, u64)> = g
            .edge_ids()
            .filter_map(|e| {
                let (a, b) = g.edge_endpoints(e);
                (new_id[a as usize] != u32::MAX && new_id[b as usize] != u32::MAX)
                    .then(|| (new_id[a as usize], new_id[b as usize], wg.weight(e)))
            })
            .collect();
        let sub_wg = WeightedGraph::from_weighted_edges(survivors.len(), &sub_edges).unwrap();
        let exact = dijkstra(&sub_wg, 0);
        for (i, &v) in survivors.iter().enumerate() {
            assert_eq!(out.outcome.dist[v as usize], exact[i], "survivor {v}");
        }
        for &v in &deg.excluded_nodes {
            assert_eq!(out.outcome.dist[v as usize], W_UNREACHABLE, "excised {v}");
        }
        assert!(
            (out.outcome.max_stretch - 1.0).abs() < 1e-9,
            "converged run is exact on the survivors"
        );
        // Sharded execution of the whole degraded path is bit-identical.
        let sharded = shortcut_sssp_simulated(
            &wg,
            &p,
            &s,
            0,
            4096,
            &SimConfig {
                shards: 3,
                ..cfg.clone()
            },
        )
        .unwrap();
        assert_eq!(sharded.outcome.dist, out.outcome.dist);
        assert_eq!(sharded.messages, out.messages);
    }

    #[test]
    fn degraded_sssp_without_permanent_crashes_matches_fault_free() {
        let (wg, p, s) = fixture();
        let clean = shortcut_sssp_simulated(&wg, &p, &s, 0, 4096, &SimConfig::default()).unwrap();
        let plan = FaultPlan {
            drop_rate: 0.10,
            delay_rate: 0.05,
            max_delay: 3,
            corrupt_rate: 0.05,
            ..FaultPlan::default()
        };
        let out = shortcut_sssp_simulated(
            &wg,
            &p,
            &s,
            0,
            4096,
            &SimConfig {
                faults: Some(plan),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.outcome.dist, clean.outcome.dist, "faults absorbed");
        let deg = out.degraded.expect("plan reports degradation");
        assert!(deg.excluded_nodes.is_empty());
        assert!(out.messages > clean.messages, "detection overhead charged");
    }

    #[test]
    fn degraded_sssp_rejects_excised_source() {
        use lcs_congest::Crash;
        let (wg, p, s) = fixture();
        let plan = FaultPlan {
            crashes: vec![Crash {
                node: 5,
                at_round: 0,
                recover_at: None,
            }],
            ..FaultPlan::default()
        };
        let err = shortcut_sssp_simulated(
            &wg,
            &p,
            &s,
            5,
            32,
            &SimConfig {
                faults: Some(plan),
                ..SimConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::FaultConfig { .. }));
    }
}
