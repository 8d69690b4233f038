//! Distributed MST via Boruvka over low-congestion shortcuts
//! (Corollary 1.2 / Fact 4.1 of the paper; framework from Ghaffari's
//! thesis, Theorem 6.1.2).
//!
//! Boruvka runs `O(log n)` phases. In each phase the current MST
//! fragments are the parts; shortcuts are (re)built for them; every
//! fragment finds its minimum-weight outgoing edge (MWOE) by a partwise
//! aggregation over the augmented fragment trees; the MWOE edges merge
//! fragments. Each phase costs one shortcut construction plus `O(1)`
//! aggregations, so the round complexity is `Õ(quality)` per phase and
//! `Õ(k_D)` overall on constant-diameter graphs.
//!
//! Tie-breaking by `(weight, edge id)` makes the MST unique and equal,
//! edge for edge, to the Kruskal reference in `lcs-graph`.
//!
//! Execution modes:
//! * [`ExecutionMode::Simulated`] — MWOE aggregations run through the
//!   CONGEST simulator (message-for-message); shortcut construction
//!   rounds are charged from the distributed construction's budget.
//! * [`ExecutionMode::Accounted`] — aggregations charged via the
//!   scheduler theorem from measured tree congestion/dilation.
//!
//! Fragment-merge bookkeeping (leader relabeling) is charged as one
//! extra aggregation sweep per phase (see the README's Substitutions
//! section).

use lcs_congest::{AggOp, ExecutionMode, FaultPlan, Session, SimConfig, SimError};
use lcs_core::{
    centralized_shortcuts, detect_and_excise, prune_to_trees, DegradedOutcome, KpParams,
    LargenessRule, OracleMode, ParamError,
};
use lcs_graph::{exact_diameter, kruskal, EdgeId, NodeId, UnionFind, WeightedGraph};
use lcs_shortcut::{
    global_tree_shortcuts, trivial_shortcuts, AggregationSetup, Partition, PartitionError,
    ShortcutSet,
};
use std::fmt;

/// Which shortcut construction feeds each Boruvka phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortcutStrategy {
    /// Kogan–Parter sampling shortcuts (`Õ(k_D)` quality).
    KoganParter,
    /// Folklore global-BFS-tree shortcuts (`O(D + √n)` quality).
    GlobalTree,
    /// No shortcuts (`H_i = ∅`): dilation = fragment diameter.
    Trivial,
}

impl fmt::Display for ShortcutStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShortcutStrategy::KoganParter => write!(f, "kogan-parter"),
            ShortcutStrategy::GlobalTree => write!(f, "global-tree"),
            ShortcutStrategy::Trivial => write!(f, "trivial"),
        }
    }
}

/// MST configuration.
#[derive(Debug, Clone)]
pub struct MstConfig {
    /// Seed for shortcut sampling and the simulator.
    pub seed: u64,
    /// Shortcut construction per phase.
    pub strategy: ShortcutStrategy,
    /// Simulated or accounted execution.
    pub execution: ExecutionMode,
    /// Known diameter (skips re-deriving it; required for
    /// [`ShortcutStrategy::KoganParter`] parameters — pass the measured
    /// graph diameter).
    pub diameter: Option<u32>,
    /// Probability constant for the KP sampling.
    pub prob_constant: f64,
    /// Engine shards for simulated execution ([`SimConfig::shards`]);
    /// `0` (the default) auto-sizes to the machine. Any value is
    /// bit-identical.
    pub shards: usize,
    /// Fault plan for the network ([`SimConfig::faults`]). With a plan
    /// attached, a detection phase (reliable BFS + census convergecast
    /// on the faulty network) excises permanently crashed nodes and
    /// anything they disconnect; Boruvka then computes the MST of the
    /// **surviving component** and reports a
    /// [`DegradedOutcome`].
    pub faults: Option<FaultPlan>,
}

impl Default for MstConfig {
    fn default() -> Self {
        MstConfig {
            seed: 0xB0B,
            strategy: ShortcutStrategy::KoganParter,
            execution: ExecutionMode::Accounted,
            diameter: None,
            prob_constant: 1.0,
            shards: 0,
            faults: None,
        }
    }
}

/// Why the MST computation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MstError {
    /// Fragment partition became invalid (internal error).
    Partition(PartitionError),
    /// Parameter failure.
    Params(ParamError),
    /// Simulator failure.
    Sim(SimError),
    /// The MWOE encoding needs `weight < 2^38` and `edge id < 2^26`.
    EncodingOverflow,
}

impl fmt::Display for MstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MstError::Partition(e) => write!(f, "fragment partition invalid: {e}"),
            MstError::Params(e) => write!(f, "parameter error: {e}"),
            MstError::Sim(e) => write!(f, "simulator error: {e}"),
            MstError::EncodingOverflow => {
                write!(f, "weight/edge-id exceed the MWOE message encoding")
            }
        }
    }
}

impl std::error::Error for MstError {}

impl From<PartitionError> for MstError {
    fn from(e: PartitionError) -> Self {
        MstError::Partition(e)
    }
}
impl From<ParamError> for MstError {
    fn from(e: ParamError) -> Self {
        MstError::Params(e)
    }
}
impl From<SimError> for MstError {
    fn from(e: SimError) -> Self {
        MstError::Sim(e)
    }
}

/// Per-phase cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCost {
    /// Rounds charged/used to (re)build shortcuts for the fragments.
    pub shortcut_rounds: u64,
    /// Rounds charged/used by the MWOE aggregation and merge
    /// bookkeeping.
    pub aggregation_rounds: u64,
    /// Fragments alive at the start of the phase.
    pub fragments: usize,
}

/// MST result with cost accounting.
#[derive(Debug, Clone)]
pub struct MstOutcome {
    /// The MST/MSF edges, sorted by id.
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub weight: u64,
    /// Number of Boruvka phases.
    pub phases: u32,
    /// Total rounds across phases.
    pub total_rounds: u64,
    /// Total simulator messages (0 in accounted mode).
    pub messages: u64,
    /// Per-phase cost breakdown.
    pub phase_costs: Vec<PhaseCost>,
    /// Execution mode used.
    pub execution: ExecutionMode,
    /// Present iff the run was configured with a
    /// [`FaultPlan`](MstConfig::faults): what graceful degradation
    /// excised and cost.
    pub degraded: Option<DegradedOutcome>,
}

const EID_BITS: u32 = 26;

/// Encodes an MWOE candidate as one aggregate-able word:
/// `(weight << 26) | edge_id` — min over these words is min over
/// `(weight, edge id)`, matching [`lcs_graph::mst_key`].
fn encode(weight: u64, e: EdgeId) -> Option<u64> {
    if weight >= (1 << (63 - EID_BITS)) || e.0 as u64 >= (1 << EID_BITS) {
        return None;
    }
    Some((weight << EID_BITS) | e.0 as u64)
}

fn decode(word: u64) -> EdgeId {
    EdgeId((word & ((1 << EID_BITS) - 1)) as u32)
}

/// Computes the MST (or minimum spanning forest) of `wg` through the
/// shortcut framework, with full round accounting.
///
/// With a [`FaultPlan`](MstConfig::faults) attached, crash-stopped
/// nodes are detected and excised first and the MST is computed on the
/// surviving component (see [`MstConfig::faults`]).
///
/// # Errors
///
/// See [`MstError`].
pub fn mst_via_shortcuts(wg: &WeightedGraph, cfg: &MstConfig) -> Result<MstOutcome, MstError> {
    if wg.graph().n() > 0 {
        if let Some(plan) = &cfg.faults {
            return degraded_mst(wg, cfg, &plan.clone());
        }
    }
    mst_pipeline(wg, cfg)
}

/// The fault-free Boruvka pipeline.
fn mst_pipeline(wg: &WeightedGraph, cfg: &MstConfig) -> Result<MstOutcome, MstError> {
    let g = wg.graph();
    let n = g.n();
    if n == 0 {
        return Ok(MstOutcome {
            edges: vec![],
            weight: 0,
            phases: 0,
            total_rounds: 0,
            messages: 0,
            phase_costs: vec![],
            execution: cfg.execution,
            degraded: None,
        });
    }
    let diameter = match cfg.diameter {
        Some(d) => d,
        None => exact_diameter(g).unwrap_or(3).max(3),
    };
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        shards: cfg.shards,
        ..SimConfig::default()
    };
    // One engine for every Boruvka phase's MWOE aggregation: the
    // session's pool and reverse-arc tables are built once, and its
    // cumulative stats give the whole run's message total.
    let mut session = match cfg.execution {
        ExecutionMode::Simulated => Some(Session::new(g, sim_cfg)),
        ExecutionMode::Accounted => None,
    };

    let mut uf = UnionFind::new(n);
    let mut mst_edges: Vec<EdgeId> = Vec::new();
    let mut weight = 0u64;
    let mut phase_costs: Vec<PhaseCost> = Vec::new();
    let mut total_rounds = 0u64;
    let mut messages = 0u64;

    for phase in 0..64 {
        // Fragment labels.
        let labels: Vec<u32> = (0..n as u32).map(|v| uf.find(v)).collect();
        let partition = Partition::from_labels(g, &labels)?;
        let fragments = partition.num_parts();
        if fragments <= 1 {
            break;
        }

        // Shortcuts for the fragments.
        let (shortcuts, shortcut_rounds): (ShortcutSet, u64) = match cfg.strategy {
            ShortcutStrategy::KoganParter => {
                let params = KpParams::new(n, diameter.max(3), cfg.prob_constant)?;
                let raw = centralized_shortcuts(
                    g,
                    &partition,
                    params,
                    cfg.seed ^ (phase as u64) << 32,
                    LargenessRule::Radius,
                    OracleMode::PerPart,
                );
                let pruned = prune_to_trees(g, &partition, &raw.shortcuts, params.depth_limit());
                // Charged at the distributed construction's budget
                // (`Õ(k_D)`); the simulated construction is exercised
                // separately in lcs-core tests/benches.
                (pruned.shortcuts, params.round_budget())
            }
            ShortcutStrategy::GlobalTree => {
                let s = global_tree_shortcuts(g, &partition, 0, None);
                (s, 2 * diameter as u64 + 2)
            }
            ShortcutStrategy::Trivial => (trivial_shortcuts(&partition), 0),
        };

        // MWOE values per node: min over incident outgoing edges.
        let setup = AggregationSetup::build(g, &partition, &shortcuts);
        let mut node_candidate: Vec<u64> = vec![u64::MAX; n];
        for v in 0..n as u32 {
            let fv = labels[v as usize];
            let mut best = u64::MAX;
            for (w, e) in g.neighbors_with_edges(v) {
                if labels[w as usize] != fv {
                    let word = encode(wg.weight(e), e).ok_or(MstError::EncodingOverflow)?;
                    best = best.min(word);
                }
            }
            node_candidate[v as usize] = best;
        }
        let value = |v: NodeId, part: usize| -> u64 {
            if partition.part_of(v) == Some(part as u32) {
                node_candidate[v as usize]
            } else {
                u64::MAX
            }
        };

        // One round for the fragment-label neighbor exchange.
        let mut aggregation_rounds = 1u64;
        let mwoe: Vec<u64> = match cfg.execution {
            ExecutionMode::Simulated => {
                let session = session.as_mut().expect("simulated mode has a session");
                let (roots, outcome) =
                    setup.aggregate_in_session(session, AggOp::Min, &value, true)?;
                aggregation_rounds += outcome.stats.rounds;
                messages += outcome.stats.messages;
                roots.into_iter().map(|r| r.unwrap_or(u64::MAX)).collect()
            }
            ExecutionMode::Accounted => {
                let res = setup.aggregate_centralized(AggOp::Min, &value);
                aggregation_rounds += 2 * setup.accounted_rounds(n);
                res
            }
        };
        // Merge bookkeeping: one extra aggregation sweep (leader
        // relabeling broadcast).
        aggregation_rounds += setup.accounted_rounds(n);

        // Merge.
        let mut merged_any = false;
        for (i, &word) in mwoe.iter().enumerate() {
            if word == u64::MAX {
                continue; // fragment has no outgoing edge (own component)
            }
            let e = decode(word);
            let (a, b) = g.edge_endpoints(e);
            let _ = i;
            if uf.union(a, b) {
                mst_edges.push(e);
                weight += wg.weight(e);
                merged_any = true;
            }
        }
        total_rounds += shortcut_rounds + aggregation_rounds;
        phase_costs.push(PhaseCost {
            shortcut_rounds,
            aggregation_rounds,
            fragments,
        });
        if !merged_any {
            break; // every remaining fragment is a full component
        }
    }

    debug_assert_eq!(
        session.as_ref().map_or(0, |s| s.stats().messages),
        messages,
        "session cumulative stats must equal the per-phase sum"
    );
    mst_edges.sort_unstable();
    Ok(MstOutcome {
        edges: mst_edges,
        weight,
        phases: phase_costs.len() as u32,
        total_rounds,
        messages,
        phase_costs,
        execution: cfg.execution,
        degraded: None,
    })
}

/// Fault-tolerant wrapper: detect crash-stops on the faulty network
/// (reliable BFS from node 0 + census convergecast over its tree),
/// excise the dead and anything they disconnect, and run Boruvka on the
/// surviving component. Detection rounds are charged as
/// [`DegradedOutcome::extra_rounds`]; the remaining phases run over the
/// reliable transport, whose outputs are byte-identical to fault-free
/// runs, so they are simulated fault-free.
fn degraded_mst(
    wg: &WeightedGraph,
    cfg: &MstConfig,
    plan: &FaultPlan,
) -> Result<MstOutcome, MstError> {
    let g = wg.graph();
    let exc = detect_and_excise(g, plan, cfg.seed, cfg.shards).map_err(MstError::Sim)?;
    let sub_cfg = MstConfig {
        faults: None,
        ..cfg.clone()
    };

    if exc.is_trivial() {
        // Nothing crash-stopped: the reliable layer absorbed the drops
        // and delays; Boruvka runs on the whole graph.
        let mut out = mst_pipeline(wg, &sub_cfg)?;
        out.total_rounds += exc.extra_rounds;
        out.messages += exc.messages;
        out.degraded = Some(exc.outcome());
        return Ok(out);
    }

    // ---- Excision: the MST of the surviving component. ---------------
    let sub_wg = exc.induced_weighted(wg);
    let sub = mst_pipeline(&sub_wg, &sub_cfg)?;

    // Map the tree back to original edge ids.
    let mut edges: Vec<EdgeId> = sub
        .edges
        .iter()
        .map(|&e| exc.original_edge(g, sub_wg.graph(), e))
        .collect();
    edges.sort_unstable();
    Ok(MstOutcome {
        edges,
        weight: sub.weight,
        phases: sub.phases,
        total_rounds: sub.total_rounds + exc.extra_rounds,
        messages: sub.messages + exc.messages,
        phase_costs: sub.phase_costs,
        execution: cfg.execution,
        degraded: Some(exc.outcome()),
    })
}

/// Convenience: assert the outcome equals the Kruskal reference.
/// Returns the common weight.
///
/// # Panics
///
/// Panics if the outcomes differ (edge-for-edge).
pub fn assert_matches_kruskal(wg: &WeightedGraph, outcome: &MstOutcome) -> u64 {
    let k = kruskal(wg);
    assert_eq!(outcome.weight, k.weight, "MST weight mismatch");
    assert_eq!(outcome.edges, k.edges, "MST edge set mismatch");
    k.weight
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{gnp_connected, HighwayGraph, HighwayParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn highway_weighted(d: u32, paths: usize, len: usize, seed: u64) -> WeightedGraph {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: paths,
            path_len: len,
            diameter: d,
        })
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        WeightedGraph::with_random_weights(hw.graph().clone(), 1000, &mut rng)
    }

    #[test]
    fn accounted_mst_matches_kruskal_on_highway() {
        let wg = highway_weighted(4, 4, 24, 1);
        let cfg = MstConfig {
            diameter: Some(4),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        assert_matches_kruskal(&wg, &out);
        assert!(out.phases >= 1);
        assert!(out.total_rounds > 0);
    }

    #[test]
    fn simulated_mst_matches_kruskal() {
        let wg = highway_weighted(4, 3, 16, 2);
        let cfg = MstConfig {
            diameter: Some(4),
            execution: ExecutionMode::Simulated,
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        assert_matches_kruskal(&wg, &out);
        assert!(out.messages > 0, "simulated mode must exchange messages");
    }

    #[test]
    fn all_strategies_agree_on_the_tree() {
        let wg = highway_weighted(4, 3, 20, 3);
        let mut outs = Vec::new();
        for strategy in [
            ShortcutStrategy::KoganParter,
            ShortcutStrategy::GlobalTree,
            ShortcutStrategy::Trivial,
        ] {
            let cfg = MstConfig {
                strategy,
                diameter: Some(4),
                ..MstConfig::default()
            };
            outs.push(mst_via_shortcuts(&wg, &cfg).unwrap());
        }
        let k = kruskal(&wg);
        for o in &outs {
            assert_eq!(o.edges, k.edges);
        }
    }

    #[test]
    fn random_graphs_over_seeds() {
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = gnp_connected(60, 0.08, &mut rng);
            let wg = WeightedGraph::with_random_weights(g, 500, &mut rng);
            let cfg = MstConfig {
                seed,
                ..MstConfig::default()
            };
            let out = mst_via_shortcuts(&wg, &cfg).unwrap();
            assert_matches_kruskal(&wg, &out);
        }
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let wg =
            WeightedGraph::from_weighted_edges(6, &[(0, 1, 5), (1, 2, 2), (3, 4, 1), (4, 5, 9)])
                .unwrap();
        let cfg = MstConfig {
            diameter: Some(3),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let k = kruskal(&wg);
        assert_eq!(out.edges, k.edges);
        assert_eq!(out.weight, 17);
    }

    #[test]
    fn boruvka_phase_count_is_logarithmic() {
        let wg = highway_weighted(4, 4, 24, 5);
        let cfg = MstConfig {
            diameter: Some(4),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let n = wg.graph().n() as f64;
        assert!(
            (out.phases as f64) <= n.log2().ceil() + 1.0,
            "phases {}",
            out.phases
        );
        // Fragment counts strictly decrease.
        let frags: Vec<usize> = out.phase_costs.iter().map(|p| p.fragments).collect();
        assert!(frags.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn empty_and_singleton() {
        let empty = WeightedGraph::from_weighted_edges(0, &[]).unwrap();
        let out = mst_via_shortcuts(&empty, &MstConfig::default()).unwrap();
        assert_eq!(out.weight, 0);
        let single = WeightedGraph::from_weighted_edges(1, &[]).unwrap();
        let out = mst_via_shortcuts(&single, &MstConfig::default()).unwrap();
        assert!(out.edges.is_empty());
    }

    #[test]
    fn degraded_mst_excises_crashed_part_and_matches_kruskal_on_survivors() {
        use lcs_congest::Crash;
        // Highway graph: 3 paths hanging off a small core. Crash every
        // node of one non-root path at round 0 — the whole part dies.
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 16,
            diameter: 4,
        })
        .unwrap();
        let parts = hw.path_parts();
        let mut dead_part: Vec<NodeId> = parts[1].clone();
        dead_part.sort_unstable();
        assert!(!dead_part.contains(&0), "crash a non-root part");
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let wg = WeightedGraph::with_random_weights(hw.graph().clone(), 1000, &mut rng);
        let cfg = MstConfig {
            diameter: Some(4),
            faults: Some(FaultPlan {
                drop_rate: 0.05,
                delay_rate: 0.05,
                max_delay: 2,
                corrupt_rate: 0.05,
                crashes: dead_part
                    .iter()
                    .map(|&v| Crash {
                        node: v,
                        at_round: 0,
                        recover_at: None,
                    })
                    .collect(),
                fault_seed: 0xDEAD,
            }),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        let deg = out
            .degraded
            .as_ref()
            .expect("faulty run reports degradation");
        assert!(deg.completed);
        assert_eq!(
            deg.excluded_nodes, dead_part,
            "excised exactly the dead part"
        );
        assert!(deg.extra_rounds > 0, "detection rounds are charged");
        // Reference: Kruskal on the surviving subgraph.
        let survivors: Vec<NodeId> = (0..wg.graph().n() as NodeId)
            .filter(|v| !dead_part.contains(v))
            .collect();
        let mut new_id = vec![u32::MAX; wg.graph().n()];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        let sub_edges: Vec<(NodeId, NodeId, u64)> = wg
            .graph()
            .edges()
            .iter()
            .enumerate()
            .filter(|&(_, &(a, b))| {
                new_id[a as usize] != u32::MAX && new_id[b as usize] != u32::MAX
            })
            .map(|(e, &(a, b))| {
                (
                    new_id[a as usize],
                    new_id[b as usize],
                    wg.weight(EdgeId(e as u32)),
                )
            })
            .collect();
        let sub_wg = WeightedGraph::from_weighted_edges(survivors.len(), &sub_edges).unwrap();
        let k = kruskal(&sub_wg);
        assert_eq!(
            out.weight, k.weight,
            "MST weight on the surviving component"
        );
        assert_eq!(out.edges.len(), k.edges.len());
        // Same edges, modulo relabeling.
        let mapped: Vec<EdgeId> = {
            let mut v: Vec<EdgeId> = k
                .edges
                .iter()
                .map(|&e| {
                    let (a, b) = sub_wg.graph().edge_endpoints(e);
                    wg.graph()
                        .edge_between(survivors[a as usize], survivors[b as usize])
                        .unwrap()
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(out.edges, mapped);
        // No MST edge touches a dead node.
        for &e in &out.edges {
            let (a, b) = wg.graph().edge_endpoints(e);
            assert!(!dead_part.contains(&a) && !dead_part.contains(&b));
        }
    }

    #[test]
    fn degraded_mst_without_crashes_matches_fault_free() {
        let wg = highway_weighted(4, 3, 16, 4);
        let clean = mst_via_shortcuts(
            &wg,
            &MstConfig {
                diameter: Some(4),
                ..MstConfig::default()
            },
        )
        .unwrap();
        let cfg = MstConfig {
            diameter: Some(4),
            faults: Some(FaultPlan {
                drop_rate: 0.10,
                delay_rate: 0.10,
                max_delay: 2,
                corrupt_rate: 0.05,
                crashes: vec![],
                fault_seed: 5,
            }),
            ..MstConfig::default()
        };
        let out = mst_via_shortcuts(&wg, &cfg).unwrap();
        assert_eq!(out.edges, clean.edges, "drops/delays never change the MST");
        assert_eq!(out.weight, clean.weight);
        let deg = out.degraded.unwrap();
        assert!(deg.completed && deg.excluded_nodes.is_empty());
        assert!(
            out.total_rounds > clean.total_rounds,
            "detection is charged"
        );
    }

    #[test]
    fn crashing_the_root_is_rejected() {
        use lcs_congest::Crash;
        let wg = highway_weighted(4, 3, 16, 4);
        let cfg = MstConfig {
            diameter: Some(4),
            faults: Some(FaultPlan {
                crashes: vec![Crash {
                    node: 0,
                    at_round: 0,
                    recover_at: None,
                }],
                ..FaultPlan::default()
            }),
            ..MstConfig::default()
        };
        match mst_via_shortcuts(&wg, &cfg) {
            Err(MstError::Sim(SimError::FaultConfig { reason })) => {
                assert!(reason.contains("node 0"));
            }
            other => panic!("expected FaultConfig rejection, got {other:?}"),
        }
    }

    #[test]
    fn encoding_roundtrip_and_overflow() {
        let e = EdgeId(12345);
        let w = 999_999u64;
        let word = encode(w, e).unwrap();
        assert_eq!(decode(word), e);
        assert!(encode(1 << 40, e).is_none());
        assert!(encode(1, EdgeId(1 << 27)).is_none());
    }
}
