//! The [`Session`] runner: one engine instance — graph, worker pool,
//! reverse-arc tables, cumulative statistics — shared by any number of
//! [`Protocol`] phases.
//!
//! Multi-phase CONGEST computations (the shortcut construction's
//! BFS → aggregation → numbering → multi-BFS → verification pipeline;
//! Boruvka's per-phase MWOE aggregations) previously paid full engine
//! setup per phase and could not overlap phases at all. A `Session`
//! fixes both:
//!
//! * **Sequential composition** — [`Session::run`] executes phases
//!   back-to-back on the *same* worker pool (spawned exactly once, at
//!   session creation) and the same precomputed reverse-arc table,
//!   absorbing every phase's [`RunStats`] into one cumulative total
//!   with a per-phase breakdown ([`Session::phases`]) and an optional
//!   cumulative round budget ([`Session::with_round_budget`]).
//! * **Concurrent composition** — [`Session::join`] runs two protocols
//!   in shared rounds via [`Join`], multiplexing per-edge bandwidth
//!   round-robin, so independent computations finish in roughly the
//!   rounds of the slower one instead of the sum.
//!
//! Determinism is inherited from the engine: outcomes, statistics, and
//! per-node RNG streams of every phase are bit-identical for any shard
//! count. Each phase reseeds its node RNGs from the phase's
//! [`SimConfig::seed`] (overridable per phase via
//! [`Session::run_configured`]), so a pipeline run through one session
//! is also bit-identical to the same phases run through separate
//! engines — sessions change the cost model, never the outcome.
//!
//! ```
//! use lcs_congest::{tree, Bfs, Session, SimConfig};
//! use lcs_congest::{positions_from_tree, AggOp};
//!
//! let g = lcs_graph::generators::grid(4, 4);
//! let mut session = Session::new(&g, SimConfig::default());
//!
//! // Phase 1: build a BFS tree from node 0.
//! let bfs = session.run(Bfs::new(0)).unwrap();
//! let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
//!
//! // Phase 2 ∥ 3: count nodes and find the max value, in SHARED
//! // rounds (one joined phase, not two sequential ones).
//! let ones = vec![1u64; g.n()];
//! let ids: Vec<u64> = (0..g.n() as u64).collect();
//! let (count, max) = session
//!     .join(
//!         tree::TreeAggregate::new(pos.clone(), &ones, AggOp::Sum, true),
//!         tree::TreeAggregate::new(pos, &ids, AggOp::Max, true),
//!     )
//!     .unwrap();
//! assert_eq!(count.0[0], Some(16));
//! assert_eq!(max.0[0], Some(15));
//!
//! // Cumulative and per-phase accounting.
//! assert_eq!(session.phases().len(), 2);
//! assert_eq!(
//!     session.stats().rounds,
//!     session.phases().iter().map(|p| p.rounds).sum::<u64>(),
//! );
//! ```

use crate::error::SimError;
use crate::protocol::{Join, Protocol};
use crate::sim::{run_phase, EngineHost, SimConfig};
use crate::stats::RunStats;
use lcs_graph::Graph;

/// One engine instance (worker pool, reverse-arc table, RNG seeding
/// discipline, cumulative statistics) hosting a pipeline of
/// [`Protocol`] phases over one graph. See the [module docs](self).
pub struct Session<'g> {
    graph: &'g Graph,
    cfg: SimConfig,
    host: EngineHost,
    cumulative: RunStats,
    phases: Vec<RunStats>,
    round_budget: Option<u64>,
    /// Rounds charged to the budget by phases that FAILED with
    /// [`SimError::RoundLimitExceeded`] (the engine reports no stats on
    /// failure, but those rounds really executed — a failed phase must
    /// not leave the budget untouched).
    charged_rounds: u64,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("n", &self.graph.n())
            .field("shards", &self.shards())
            .field("phases", &self.phases.len())
            .field("rounds_used", &self.cumulative.rounds)
            .field("round_budget", &self.round_budget)
            .finish()
    }
}

impl<'g> Session<'g> {
    /// Creates a session on `graph`. The worker pool is spawned here —
    /// once — with `cfg.shards` resolved per
    /// [`SimConfig::resolved_shards`]; every phase reuses it. `cfg` is
    /// the default configuration of each phase (see
    /// [`Session::run_configured`] for per-phase overrides; a phase
    /// override of `shards` is ignored, since the pool is fixed).
    pub fn new(graph: &'g Graph, cfg: SimConfig) -> Self {
        let host = EngineHost::new(graph, cfg.resolved_shards(graph.n()));
        Session {
            graph,
            cfg,
            host,
            cumulative: RunStats::new(graph),
            phases: Vec::new(),
            round_budget: None,
            charged_rounds: 0,
        }
    }

    /// Caps the session's **cumulative** rounds across all phases.
    /// Each subsequent phase runs with `max_rounds` clamped to the
    /// remaining budget; once the budget is spent, further phases fail
    /// with [`SimError::RoundLimitExceeded`] (reporting the budget as
    /// the limit). This is the session-level form of the paper's round
    /// accounting: a pipeline is one algorithm with one budget, not a
    /// sequence of independently-bounded runs.
    pub fn with_round_budget(mut self, budget: u64) -> Self {
        self.round_budget = Some(budget);
        self
    }

    /// The graph this session runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The session's base phase configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The resolved shard count (= persistent pool workers).
    pub fn shards(&self) -> usize {
        self.host.pool.workers()
    }

    /// Cumulative statistics over all completed phases.
    pub fn stats(&self) -> &RunStats {
        &self.cumulative
    }

    /// Per-phase statistics, in execution order, each labeled with the
    /// phase's [`Protocol::label`] (or the explicit
    /// [`Session::run_labeled`] label).
    pub fn phases(&self) -> &[RunStats] {
        &self.phases
    }

    /// Rounds consumed so far, cumulative across phases — including
    /// rounds charged to phases that failed with
    /// [`SimError::RoundLimitExceeded`] (those executed to their cap
    /// even though the engine reports no statistics for them).
    pub fn rounds_used(&self) -> u64 {
        self.cumulative.rounds + self.charged_rounds
    }

    /// Rounds left in the budget (`None` when unbudgeted).
    pub fn rounds_remaining(&self) -> Option<u64> {
        self.round_budget
            .map(|b| b.saturating_sub(self.rounds_used()))
    }

    /// Runs one protocol phase to quiescence and returns its typed
    /// output; the phase's statistics are recorded under
    /// [`Protocol::label`].
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on any CONGEST-model violation, when the
    /// phase exceeds `max_rounds`, or when the session's round budget
    /// is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the protocol's `init` does not produce exactly one
    /// state per node, or propagates a panic from a protocol hook (on
    /// any shard — the pool never deadlocks on a panicking phase).
    pub fn run<P: Protocol + Sync>(&mut self, protocol: P) -> Result<P::Output, SimError> {
        let label = protocol.label().to_string();
        self.dispatch(label, protocol, |_| {})
    }

    /// [`Session::run`] with an explicit phase label (overriding
    /// [`Protocol::label`]) — useful when one pipeline runs the same
    /// protocol type several times.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_labeled<P: Protocol + Sync>(
        &mut self,
        label: impl Into<String>,
        protocol: P,
    ) -> Result<P::Output, SimError> {
        self.dispatch(label.into(), protocol, |_| {})
    }

    /// [`Session::run`] with a per-phase configuration override
    /// (applied to a copy of the session config): seed, round limit,
    /// bandwidth. A `shards` override is ignored — the pool is fixed
    /// for the session's lifetime.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_configured<P: Protocol + Sync>(
        &mut self,
        label: impl Into<String>,
        protocol: P,
        configure: impl FnOnce(&mut SimConfig),
    ) -> Result<P::Output, SimError> {
        self.dispatch(label.into(), protocol, configure)
    }

    /// Runs two protocols **concurrently in shared rounds** (see
    /// [`Join`]) and returns both outputs. The phase accounts rounds
    /// once — this is the whole point: `k` independent aggregations
    /// joined pairwise complete in roughly the rounds of the slowest,
    /// not the sum.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn join<P1, P2>(
        &mut self,
        first: P1,
        second: P2,
    ) -> Result<(P1::Output, P2::Output), SimError>
    where
        P1: Protocol + Sync,
        P2: Protocol + Sync,
    {
        self.run(Join::new(first, second))
    }

    fn dispatch<P: Protocol + Sync>(
        &mut self,
        label: String,
        mut protocol: P,
        configure: impl FnOnce(&mut SimConfig),
    ) -> Result<P::Output, SimError> {
        let mut cfg = self.cfg.clone();
        configure(&mut cfg);
        if let Some(budget) = self.round_budget {
            let remaining = budget.saturating_sub(self.rounds_used());
            if remaining == 0 {
                return Err(SimError::RoundLimitExceeded { limit: budget });
            }
            cfg.max_rounds = cfg.max_rounds.min(remaining);
        }
        cfg.validate()?;
        let states = protocol.init(self.graph);
        let (states, stats) = match run_phase(self.graph, &mut self.host, &protocol, states, &cfg) {
            Ok(done) => done,
            Err(e) => {
                if matches!(e, SimError::RoundLimitExceeded { .. }) {
                    // The phase ran all the way to its cap; debit the
                    // budget so a caller that catches the error and
                    // retries cannot execute unbounded rounds under it.
                    self.charged_rounds += cfg.max_rounds;
                }
                return Err(e);
            }
        };
        let stats = stats.labeled(label);
        self.cumulative.absorb(&stats);
        let output = protocol.finish(self.graph, states, &stats);
        self.phases.push(stats);
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::node::RoundCtx;
    use crate::tree::{positions_from_tree, AggOp, TreeAggregate, TreePosition};
    use lcs_graph::NodeId;

    fn path_positions(n: usize, root: NodeId) -> Vec<TreePosition> {
        // A path tree rooted at `root` (must be an endpoint: 0 or n-1).
        (0..n as NodeId)
            .map(|v| {
                let (parent, children) = if root == 0 {
                    (
                        (v > 0).then(|| v - 1),
                        if (v as usize) < n - 1 {
                            vec![v + 1]
                        } else {
                            vec![]
                        },
                    )
                } else {
                    (
                        ((v as usize) < n - 1).then(|| v + 1),
                        if v > 0 { vec![v - 1] } else { vec![] },
                    )
                };
                TreePosition {
                    parent,
                    children,
                    in_tree: true,
                    is_root: v == root,
                }
            })
            .collect()
    }

    #[test]
    fn sequential_phases_accumulate_stats_and_labels() {
        let g = lcs_graph::generators::grid(4, 4);
        let mut session = Session::new(&g, SimConfig::default());
        let bfs = session.run(Bfs::new(0)).unwrap();
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        let ones = vec![1u64; g.n()];
        let (res, agg_stats) = session
            .run(TreeAggregate::new(pos, &ones, AggOp::Sum, false))
            .unwrap();
        assert_eq!(res[0], Some(16));
        assert_eq!(session.phases().len(), 2);
        assert_eq!(session.phases()[0].label, "bfs");
        assert_eq!(session.phases()[1].label, "tree_aggregate");
        assert_eq!(session.phases()[1], agg_stats);
        assert_eq!(
            session.stats().rounds,
            bfs.stats.rounds + agg_stats.rounds,
            "cumulative = sum of phases"
        );
        assert_eq!(
            session.stats().messages,
            bfs.stats.messages + agg_stats.messages
        );
    }

    /// The acceptance property of `join`: two tree aggregations in one
    /// joined phase complete in STRICTLY fewer total rounds than the
    /// same two run back-to-back, because they share rounds.
    #[test]
    fn join_of_two_aggregations_beats_back_to_back_rounds() {
        let n = 24;
        let g = lcs_graph::generators::path(n);
        let values: Vec<u64> = (0..n as u64).collect();
        let mk_down = || TreeAggregate::new(path_positions(n, 0), &values, AggOp::Sum, true);
        let mk_up = || {
            TreeAggregate::new(
                path_positions(n, (n - 1) as NodeId),
                &values,
                AggOp::Max,
                true,
            )
        };

        // Back-to-back: two sequential phases.
        let mut seq = Session::new(&g, SimConfig::default());
        let (r1, _) = seq.run(mk_down()).unwrap();
        let (r2, _) = seq.run(mk_up()).unwrap();
        let sequential_rounds = seq.stats().rounds;

        // Joined: one shared phase.
        let mut joined = Session::new(&g, SimConfig::default());
        let ((j1, _), (j2, _)) = joined.join(mk_down(), mk_up()).unwrap();
        let joined_rounds = joined.stats().rounds;

        assert_eq!(j1, r1, "joined results must match standalone");
        assert_eq!(j2, r2);
        assert!(
            joined_rounds < sequential_rounds,
            "join must share rounds: joined {joined_rounds} vs sequential {sequential_rounds}"
        );
        assert_eq!(joined.phases().len(), 1);
        assert_eq!(joined.phases()[0].label, "tree_aggregate+tree_aggregate");
    }

    /// Joins nest: three aggregations in one phase, all correct.
    #[test]
    fn nested_join_shares_rounds_three_ways() {
        let n = 16;
        let g = lcs_graph::generators::path(n);
        let values: Vec<u64> = (0..n as u64).collect();
        let mk = |op| TreeAggregate::new(path_positions(n, 0), &values, op, true);
        let mut session = Session::new(&g, SimConfig::default());
        let (sum, (min, max)) = session
            .join(
                mk(AggOp::Sum),
                crate::protocol::Join::new(mk(AggOp::Min), mk(AggOp::Max)),
            )
            .unwrap();
        assert_eq!(sum.0[5], Some((0..16).sum::<u64>()));
        assert_eq!(min.0[5], Some(0));
        assert_eq!(max.0[5], Some(15));
    }

    /// Join halves must not corrupt each other's messages: results on
    /// every node match the standalone runs even under heavy sharing.
    #[test]
    fn joined_runs_are_bit_identical_to_standalone_runs() {
        let g = lcs_graph::generators::grid(5, 5);
        let bfs = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        let a_vals: Vec<u64> = (0..g.n() as u64).map(|v| v * 3 + 1).collect();
        let b_vals: Vec<u64> = (0..g.n() as u64).map(|v| 1000 - v).collect();
        let mk_a = || TreeAggregate::new(pos.clone(), &a_vals, AggOp::Sum, true);
        let mk_b = || TreeAggregate::new(pos.clone(), &b_vals, AggOp::Min, true);
        let (a_alone, _) = Session::new(&g, SimConfig::default()).run(mk_a()).unwrap();
        let (b_alone, _) = Session::new(&g, SimConfig::default()).run(mk_b()).unwrap();
        let ((a, _), (b, _)) = Session::new(&g, SimConfig::default())
            .join(mk_a(), mk_b())
            .unwrap();
        assert_eq!(a, a_alone);
        assert_eq!(b, b_alone);
    }

    #[test]
    fn round_budget_is_cumulative_across_phases() {
        let g = lcs_graph::generators::path(12);
        let mut session = Session::new(&g, SimConfig::default()).with_round_budget(1000);
        let first = session.run(Bfs::new(0)).unwrap();
        assert_eq!(session.rounds_remaining(), Some(1000 - first.stats.rounds));
        // Exhaust the budget with a tiny one.
        let mut tight = Session::new(&g, SimConfig::default()).with_round_budget(3);
        let err = tight.run(Bfs::new(0)).unwrap_err();
        assert!(matches!(err, SimError::RoundLimitExceeded { .. }));
        // The failed phase executed to its cap and must be DEBITED:
        // a caller that catches the error and retries cannot run
        // unbounded rounds under the budget.
        assert_eq!(tight.rounds_used(), 3);
        assert_eq!(tight.rounds_remaining(), Some(0));
        let err = tight.run(Bfs::new(0)).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 3 });
        let mut spent = Session::new(&g, SimConfig::default()).with_round_budget(0);
        let err = spent.run(Bfs::new(0)).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 0 });
    }

    #[test]
    fn run_configured_overrides_seed_per_phase() {
        let g = lcs_graph::generators::grid(3, 3);
        // A protocol whose outcome depends on the node RNG stream.
        struct Coin;
        impl Protocol for Coin {
            type Msg = ();
            type State = u64;
            type Output = Vec<u64>;
            fn init(&mut self, graph: &Graph) -> Vec<u64> {
                vec![0; graph.n()]
            }
            fn round(&self, st: &mut u64, ctx: &mut RoundCtx<'_, ()>) {
                if ctx.round() == 0 {
                    *st = rand::Rng::gen(ctx.rng());
                }
            }
            fn halted(&self, _: &u64) -> bool {
                true
            }
            fn finish(self, _: &Graph, st: Vec<u64>, _: &RunStats) -> Vec<u64> {
                st
            }
        }
        let mut session = Session::new(&g, SimConfig::default());
        let a = session.run(Coin).unwrap();
        let b = session.run(Coin).unwrap();
        let c = session
            .run_configured("coin2", Coin, |cfg| cfg.seed ^= 0xDEAD)
            .unwrap();
        assert_eq!(a, b, "same phase seed, same streams");
        assert_ne!(a, c, "overridden seed must move the streams");
        assert_eq!(session.phases()[2].label, "coin2");
    }

    /// A model violation inside one side of a join aborts the run with
    /// the violation, exactly like a standalone run.
    #[test]
    fn join_propagates_model_violations() {
        let g = lcs_graph::generators::path(3);
        let bad = TreeAggregate::new(
            vec![
                TreePosition {
                    parent: None,
                    children: vec![2], // non-neighbor: violation
                    in_tree: true,
                    is_root: true,
                },
                TreePosition::default(),
                TreePosition::default(),
            ],
            &[1, 1, 1],
            AggOp::Sum,
            true,
        );
        let good = TreeAggregate::new(path_positions(3, 0), &[1, 1, 1], AggOp::Sum, false);
        let err = Session::new(&g, SimConfig::default())
            .join(bad, good)
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidDestination { from: 0, to: 2, .. }),
            "{err:?}"
        );
    }

    /// Sessions change the cost model, never the outcome: a pipeline
    /// through one session equals the phases run in fresh engines.
    #[test]
    fn session_phases_match_fresh_engine_runs() {
        let g = lcs_graph::generators::gnp_connected(
            30,
            0.15,
            &mut <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(9),
        );
        let mut session = Session::new(&g, SimConfig::default());
        let b1 = session.run(Bfs::new(0)).unwrap();
        let pos = positions_from_tree(0, &b1.parent, &b1.children);
        let ones = vec![1u64; g.n()];
        let (r1, s1) = session
            .run(TreeAggregate::new(pos.clone(), &ones, AggOp::Sum, true))
            .unwrap();

        let b2 = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let (r2, s2) = Session::new(&g, SimConfig::default())
            .run(TreeAggregate::new(pos, &ones, AggOp::Sum, true))
            .unwrap();
        assert_eq!(b1.dist, b2.dist);
        assert_eq!(b1.stats, b2.stats);
        assert_eq!(r1, r2);
        assert_eq!(s1, s2);
    }
}
