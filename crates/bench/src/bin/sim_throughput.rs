//! Simulator throughput benchmark: rounds/sec and messages/sec of the
//! CONGEST engine on standard workloads (idle rounds, saturated
//! message path, flood, sparse long-path BFS, multi-BFS, partwise
//! aggregation, a composed session pipeline), emitted as
//! `BENCH_sim.json` so the engine's perf trajectory is tracked per-PR.
//!
//! Usage: `sim_throughput [--quick] [--shards K[,K2,...]] [--reps N]
//! [--out PATH] [--check PATH] [--help]`. The shared flags, the output
//! policy and the exit codes are [`lcs_bench::gate`]'s; without
//! `--shards` only shard count 1 runs. `--reps N` records the median
//! elapsed time of `N` repetitions (use `--reps 3` to regenerate
//! `BENCH_sim.json`); their statistics must be identical or the run
//! aborts.
//!
//! Every sharded run's stats and per-phase fingerprints must equal the
//! 1-shard run's — the gate covers the sparsest active-set workloads,
//! `idle` and `sparse_bfs`, alongside the dense ones. `--check` pins
//! the 1-shard fingerprints to the committed file, so a change that
//! moves every shard count the same way is caught too. CI runs
//! `--quick --shards 1,4 --check BENCH_sim.json`.
//!
//! Two workloads run at **large scale** — `large_bfs` and
//! `large_flood` on a 10⁶-node grid (40 000 nodes under `--quick`, so
//! the CI determinism gate exercises the same code path at CI cost) —
//! covering the memory-lean u32/CSR representations at the graph sizes
//! the shortcut-quality experiments need.

use lcs_bench::gate::{self, Doc, Gate, Row, Sweep};
use lcs_bench::sim_workloads::{multi_bfs_spec, Clock, Saturate};
use lcs_bench::{flag_value, ArgsError};
use lcs_congest::{
    positions_from_tree, AggOp, Bfs, MultiAggregate, MultiBfs, Participation, Protocol, RoundCtx,
    RunStats, Session, SimConfig, TreeAggregate,
};
use lcs_graph::{generators, Graph};
use std::time::Instant;

/// Flood protocol (same shape as the engine's own smoke test): node 0
/// fires a token that everyone forwards once. Message-light, round-heavy
/// — measures per-round engine overhead.
struct Flood;

/// One [`Flood`] node: `(seen, fired)`.
type FloodNode = (bool, bool);

impl Protocol for Flood {
    type Msg = u32;
    type State = FloodNode;
    type Output = RunStats;
    fn label(&self) -> &str {
        "flood"
    }
    fn init(&mut self, graph: &Graph) -> Vec<FloodNode> {
        vec![(false, false); graph.n()]
    }
    fn round(&self, (seen, fired): &mut FloodNode, ctx: &mut RoundCtx<'_, u32>) {
        if ctx.round() == 0 && ctx.node() == 0 {
            *seen = true;
        }
        if !*seen && !ctx.inbox().is_empty() {
            *seen = true;
        }
        if *seen && !*fired {
            *fired = true;
            for i in 0..ctx.degree() {
                ctx.send(ctx.neighbors()[i], 1);
            }
        }
    }
    fn halted(&self, &(seen, fired): &FloodNode) -> bool {
        fired || !seen
    }
    fn finish(self, _: &Graph, _: Vec<FloodNode>, stats: &RunStats) -> RunStats {
        stats.clone()
    }
}

#[derive(Debug, Clone)]
struct Measurement {
    name: String,
    n: usize,
    m: usize,
    shards: usize,
    rounds: u64,
    messages: u64,
    elapsed_s: f64,
    /// [`RunStats::fingerprint`] of the run (the cumulative session
    /// fingerprint for composed workloads).
    stats_fingerprint: u64,
    /// Wall-clock speedup over the 1-shard run of the same workload
    /// (filled in after the sweep; 1.0 for the baseline itself).
    speedup_vs_1shard: f64,
    /// Per-phase breakdown of composed (Session) workloads, as
    /// [`gate::phases`] writes it; empty for single-protocol workloads.
    phases: String,
}

impl Measurement {
    /// The row of a run of `g` that started at `t` and just ended.
    fn from_stats(name: &str, g: &Graph, shards: usize, stats: &RunStats, t: Instant) -> Self {
        Measurement {
            name: name.to_string(),
            n: g.n(),
            m: g.m(),
            shards,
            rounds: stats.rounds,
            messages: stats.messages,
            elapsed_s: t.elapsed().as_secs_f64(),
            stats_fingerprint: stats.fingerprint(),
            speedup_vs_1shard: 1.0,
            phases: String::new(),
        }
    }

    fn json(&self) -> String {
        Row::default()
            .str("name", &self.name)
            .val("n", self.n)
            .val("m", self.m)
            .val("shards", self.shards)
            .val("rounds", self.rounds)
            .val("messages", self.messages)
            .fixed("elapsed_s", self.elapsed_s, 6)
            .fixed("rounds_per_s", self.rounds as f64 / self.elapsed_s, 1)
            .fixed("messages_per_s", self.messages as f64 / self.elapsed_s, 1)
            .fp("stats_fingerprint", self.stats_fingerprint)
            .fixed("speedup_vs_1shard", self.speedup_vs_1shard, 3)
            .phases(&self.phases)
            .end()
    }
}

fn cfg_with(shards: usize, max_rounds: u64) -> SimConfig {
    SimConfig {
        max_rounds,
        shards,
        ..SimConfig::default()
    }
}

fn bench_flood(name: &str, g: &Graph, shards: usize) -> Measurement {
    let t = Instant::now();
    let stats = Session::new(g, cfg_with(shards, 1_000_000))
        .run(Flood)
        .expect("flood");
    Measurement::from_stats(name, g, shards, &stats, t)
}

/// Single-source BFS on the large grid: the scale workload. Frontier
/// waves cross a graph whose slot/occupancy/adjacency arrays are far
/// bigger than the last-level cache, so this measures the engine's
/// memory behaviour (and the u32-id CSR layout) rather than its
/// per-round bookkeeping.
fn bench_large_bfs(g: &Graph, side: usize, shards: usize) -> Measurement {
    let t = Instant::now();
    let out = Session::new(g, cfg_with(shards, 10_000_000))
        .run(Bfs::new(0))
        .expect("large_bfs");
    assert_eq!(out.depth() as usize, 2 * (side - 1), "grid BFS depth");
    Measurement::from_stats("large_bfs", g, shards, &out.stats, t)
}

fn bench_multi_bfs(g: &Graph, instances: usize, shards: usize) -> Measurement {
    let spec = multi_bfs_spec(g.n(), instances);
    let t = Instant::now();
    let out = Session::new(g, cfg_with(shards, 10_000_000))
        .run(MultiBfs::new(spec))
        .expect("multi_bfs");
    Measurement::from_stats("multi_bfs", g, shards, &out.stats, t)
}

fn bench_multi_aggregate(g: &Graph, instances: usize, shards: usize) -> Measurement {
    let bfs = Session::new(g, SimConfig::default())
        .run(Bfs::new(0))
        .expect("bfs tree");
    let parts: Vec<Vec<Participation>> = (0..g.n())
        .map(|v| {
            (0..instances as u32)
                .map(|inst| Participation {
                    inst,
                    parent: bfs.parent[v],
                    children: bfs.children[v].clone(),
                    value: v as u64 + inst as u64,
                })
                .collect()
        })
        .collect();
    let t = Instant::now();
    let out = Session::new(g, cfg_with(shards, 10_000_000))
        .run(MultiAggregate::new(parts, AggOp::Sum, true))
        .expect("multi_aggregate");
    Measurement::from_stats("multi_aggregate", g, shards, &out.stats, t)
}

/// Composed-session workload: a sequential bfs → aggregate pipeline
/// through ONE engine (single pool spawn), reporting the cumulative
/// stats plus the per-phase breakdown. Its fingerprint feeds the shard
/// determinism gate, so *composition* — not just individual protocols —
/// is covered by the CI `--shards 1,4` check.
fn bench_session_pipeline(g: &Graph, shards: usize) -> Measurement {
    let t = Instant::now();
    let mut session = Session::new(g, cfg_with(shards, 10_000_000));
    let bfs = session.run(Bfs::new(0)).expect("pipeline bfs");
    let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
    let values: Vec<u64> = (0..g.n() as u64).collect();
    let (res, _) = session
        .run(TreeAggregate::new(pos, &values, AggOp::Sum, true))
        .expect("pipeline aggregate");
    assert_eq!(res[0], Some((0..g.n() as u64).sum::<u64>()));
    let mut m = Measurement::from_stats("session_pipeline", g, shards, session.stats(), t);
    m.phases = gate::phases(session.phases());
    m
}

/// Quiescent network + one awake clock node: the engine's pure
/// idle-round cost. Every node but node 0 sleeps after round 0 (the
/// event-driven active set never touches it again); node 0 stays awake
/// `rounds` rounds via the explicit wake contract, then the run
/// terminates normally. A round is O(1) — independent of `n`, and
/// independent of the shard count because near-quiescent rounds run
/// inline on the coordinator, skipping the worker barrier entirely.
/// (The previous engine invoked all `n` nodes every round here and paid
/// the barrier per round at shards > 1.)
fn bench_idle(g: &Graph, rounds: u64, shards: usize) -> Measurement {
    let t = Instant::now();
    let stats = Session::new(g, cfg_with(shards, rounds + 10))
        .run(Clock::new(rounds))
        .expect("idle");
    assert_eq!(stats.rounds, rounds);
    assert_eq!(stats.messages, 0);
    Measurement::from_stats("idle", g, shards, &stats, t)
}

/// Sparse-frontier workload: BFS down a long path. The frontier is 1–2
/// nodes for `n` rounds, so the run isolates the O(active + messages)
/// round cost — the previous full-scan engine paid O(n) per round,
/// an O(n²) total that dwarfed the O(n) of useful work.
fn bench_sparse_bfs(n: usize, shards: usize) -> Measurement {
    let g = generators::path(n);
    let t = Instant::now();
    let out = Session::new(&g, cfg_with(shards, 10_000_000))
        .run(Bfs::new(0))
        .expect("sparse_bfs");
    assert_eq!(out.depth() as usize, n - 1);
    Measurement::from_stats("sparse_bfs", &g, shards, &out.stats, t)
}

/// Chaos workload: a drop×delay×crash sweep through ONE session — raw
/// BFS under a drop plan, a delay plan, and a mixed plan with mid-run
/// crashes (one recovering), plus a [`Reliable`](lcs_congest::Reliable)-wrapped BFS under
/// drops whose output must still be the exact fault-free tree. The
/// cumulative session fingerprint folds the fault counters
/// (dropped/delayed/crashed), so the CI `--shards 1,4` determinism gate
/// asserts the entire fault layer — fate hashing, reorder buffers,
/// crash windows, retransmission — is bit-identical across shard
/// counts.
fn bench_chaos(g: &Graph, side: usize, shards: usize) -> Measurement {
    use lcs_congest::{Crash, FaultPlan, Reliable};
    let n = g.n();
    let t = Instant::now();
    let mut session = Session::new(g, cfg_with(shards, 10_000_000));
    let drop_plan = FaultPlan::drops(0.10, 0xC0FFEE);
    let delay_plan = FaultPlan {
        drop_rate: 0.0,
        delay_rate: 0.20,
        max_delay: 2,
        corrupt_rate: 0.0,
        crashes: vec![],
        fault_seed: 0xC0FFEE,
    };
    let mix_plan = FaultPlan {
        drop_rate: 0.05,
        delay_rate: 0.10,
        max_delay: 3,
        corrupt_rate: 0.0,
        crashes: vec![
            Crash {
                node: (n / 3) as u32,
                at_round: 5,
                recover_at: None,
            },
            Crash {
                node: (n / 2) as u32,
                at_round: 10,
                recover_at: Some(64),
            },
            Crash {
                node: (2 * n / 3) as u32,
                at_round: 15,
                recover_at: None,
            },
        ],
        fault_seed: 0xBAD_F00D,
    };
    for (label, plan) in [
        ("chaos.drop", drop_plan.clone()),
        ("chaos.delay", delay_plan),
        ("chaos.mix", mix_plan),
    ] {
        session
            .run_configured(label, Bfs::new(0), |c| c.faults = Some(plan))
            .expect("chaos bfs");
    }
    // The grid diameter is known, so cap the synchronizer's quiet wave
    // at Θ(D) instead of the default Θ(n) termination tail.
    let reliable = Reliable::new(Bfs::new(0)).with_quiet_bound(2 * (side as u32 - 1));
    let out = session
        .run_configured("chaos.reliable", reliable, |c| c.faults = Some(drop_plan))
        .expect("chaos reliable bfs");
    // Reliability under drops is exact: the tree has true grid depth.
    assert_eq!(out.depth() as usize, 2 * (side - 1), "reliable BFS depth");
    let mut m = Measurement::from_stats("chaos", g, shards, session.stats(), t);
    m.phases = gate::phases(session.phases());
    m
}

fn bench_saturate(g: &Graph, rounds: u64, shards: usize) -> Measurement {
    let t = Instant::now();
    let stats = Session::new(g, cfg_with(shards, 10_000_000))
        .run(Saturate::new(rounds))
        .expect("saturate");
    Measurement::from_stats("saturate", g, shards, &stats, t)
}

const SIM: Gate = Gate {
    bench: "sim_throughput",
    default_out: "BENCH_sim.json",
    sweep: Some(Sweep {
        flag: "--shards",
        key: "shards",
        default: &[1],
    }),
    id_key: Some("name"),
    extra_usage: "[--reps N] ",
};

/// Parses the command line (program name excluded): the gate's flags
/// plus `--reps N`, the repetitions per workload.
fn parse_args(args: &[String]) -> Result<(gate::GateArgs, usize), ArgsError> {
    let mut reps = 1;
    let gate_args = SIM.parse_with(args, |flag, it| {
        if flag != "--reps" {
            return Ok(false);
        }
        reps = gate::positive(flag_value(it, flag)?, flag)?;
        Ok(true)
    })?;
    Ok((gate_args, reps))
}

/// Runs `f` `reps` times and keeps the median-elapsed measurement.
/// Statistics must be identical across repetitions — the workloads are
/// deterministic, so a mismatch means the harness (not the host) is
/// broken and the numbers would be meaningless.
fn median_of(reps: usize, f: impl Fn() -> Measurement) -> Measurement {
    let mut runs: Vec<Measurement> = (0..reps.max(1)).map(|_| f()).collect();
    for r in &runs[1..] {
        assert_eq!(
            r.stats_fingerprint, runs[0].stats_fingerprint,
            "workload {} not deterministic across repetitions",
            runs[0].name
        );
    }
    runs.sort_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s));
    runs.swap_remove(runs.len() / 2)
}

fn main() {
    let (args, reps) = parse_args(&gate::env_args()).unwrap_or_else(|e| e.exit(&SIM.usage()));
    let committed = SIM.committed(&args);
    let quick = args.quick;

    let side = if quick { 40 } else { 100 };
    // 10⁶ nodes at full scale; still well past any cache under --quick.
    let big_side = if quick { 200 } else { 1000 };
    let instances = if quick { 8 } else { 32 };
    let g = generators::grid(side, side);
    let big = generators::grid(big_side, big_side);

    let mut all: Vec<Measurement> = Vec::new();
    for &k in &args.sweep {
        eprintln!("== shards = {k} ==");
        for (j, mut m) in [
            median_of(reps, || bench_idle(&g, if quick { 200 } else { 1000 }, k)),
            median_of(reps, || bench_saturate(&g, if quick { 50 } else { 200 }, k)),
            median_of(reps, || bench_flood("flood", &g, k)),
            median_of(reps, || {
                bench_sparse_bfs(if quick { 2_000 } else { 10_000 }, k)
            }),
            median_of(reps, || bench_multi_bfs(&g, instances, k)),
            median_of(reps, || bench_multi_aggregate(&g, instances / 2, k)),
            median_of(reps, || bench_session_pipeline(&g, k)),
            median_of(reps, || bench_chaos(&g, side, k)),
            median_of(reps, || bench_large_bfs(&big, big_side, k)),
            median_of(reps, || bench_flood("large_flood", &big, k)),
        ]
        .into_iter()
        .enumerate()
        {
            // Shard count 1 runs first, so `all[j]` is the baseline.
            if k != 1 {
                m.speedup_vs_1shard = all[j].elapsed_s / m.elapsed_s;
            }
            eprintln!(
                "{:>16}  n={} rounds={} messages={} elapsed={:.3}s  ({:.0} rounds/s, \
                 {:.0} msgs/s, {:.2}x vs 1 shard)",
                m.name,
                m.n,
                m.rounds,
                m.messages,
                m.elapsed_s,
                m.rounds as f64 / m.elapsed_s,
                m.messages as f64 / m.elapsed_s,
                m.speedup_vs_1shard,
            );
            all.push(m);
        }
    }

    // Shard determinism gate: every sharded run's stats fingerprint and
    // phase breakdown must equal the sequential run's.
    let rows: Vec<String> = all.iter().map(Measurement::json).collect();
    let diverged = SIM.divergences(&rows);
    let json = Doc::new("sim_throughput", args.mode())
        .field("shard_sweep", format_args!("{:?}", args.sweep))
        .str("determinism", gate::determinism(&diverged))
        .rows("workloads", rows)
        .end();
    SIM.finish(&args, committed.as_deref(), &json, &diverged);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(gate::GateArgs, usize), ArgsError> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_ci_command_line() {
        let (a, reps) = parse(&[
            "--quick",
            "--shards",
            "1,4",
            "--check",
            "BENCH_sim.json",
            "--out",
            "BENCH_sim.quick.json",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!((a.sweep, reps), (vec![1, 4], 1));
        assert_eq!(a.check.as_deref(), Some("BENCH_sim.json"));
        assert_eq!(a.out.as_deref(), Some("BENCH_sim.quick.json"));
        let (a, reps) = parse(&["--shards", "2,1,8", "--reps", "3"]).unwrap();
        assert_eq!((a.sweep, reps), (vec![1, 2, 8], 3));
        assert_eq!(parse(&[]).unwrap().0.sweep, vec![1]);
    }

    #[test]
    fn rejects_bad_flags_and_answers_help() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        for bad in [
            &["--shards"][..],
            &["--shards", "--quick"],
            &["--shards", "0"],
            &["--reps", "x"],
            &["--reps", "0"],
            &["--check"],
            &["--quik"],
            &["--instances", "5"],
        ] {
            assert!(
                matches!(parse(bad), Err(ArgsError::Bad(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn check_reads_back_what_the_bench_writes() {
        let g = generators::path(3);
        let mut m = Measurement::from_stats("pipe", &g, 1, &RunStats::new(&g), Instant::now());
        let phase = |label: &str, rounds| {
            let mut s = RunStats::new(&g);
            (s.label, s.rounds) = (label.into(), rounds);
            s
        };
        m.phases = gate::phases(&[phase("bfs", 3), phase("agg", 5)]);
        let mut sharded = m.clone();
        sharded.shards = 4;
        let doc = |rows: &[&Measurement]| {
            Doc::new("sim_throughput", "quick")
                .rows("workloads", rows.iter().map(|m| m.json()))
                .end()
        };
        let committed = doc(&[&m, &sharded]);
        assert!(SIM.check_fingerprints(&committed, &doc(&[&m])).is_empty());
        assert!(SIM.divergences(&[m.json(), sharded.json()]).is_empty());
        let mut moved = m.clone();
        moved.stats_fingerprint ^= 1;
        assert_eq!(SIM.check_fingerprints(&committed, &doc(&[&moved])).len(), 1);
        let mut phase_moved = m.clone();
        phase_moved.phases = gate::phases(&[phase("bfs", 3), phase("agg", 6)]);
        assert_eq!(
            SIM.check_fingerprints(&committed, &doc(&[&phase_moved]))
                .len(),
            1
        );
        phase_moved.shards = 4;
        assert_eq!(SIM.divergences(&[m.json(), phase_moved.json()]).len(), 1);
        let mut renamed = m;
        renamed.name = "other".into();
        assert_eq!(
            SIM.check_fingerprints(&committed, &doc(&[&renamed])).len(),
            2
        );
    }
}
