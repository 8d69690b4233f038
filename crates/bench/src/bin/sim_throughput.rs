//! Simulator throughput benchmark: rounds/sec and messages/sec of the
//! CONGEST engine on standard workloads (idle rounds, saturated
//! message path, flood, sparse long-path BFS, multi-BFS, partwise
//! aggregation, a composed session pipeline), emitted as
//! `BENCH_sim.json` so the engine's perf trajectory is tracked per-PR.
//!
//! Usage: `sim_throughput [--quick] [--shards K[,K2,...]] [--reps N]
//! [--instances N] [--out PATH] [--check PATH] [--help]`
//!
//! `--quick` shrinks the workloads to CI scale. `--shards` takes a
//! comma-separated sweep of shard counts (e.g. `--shards 1,2,4,8`);
//! shard count 1 is always measured first as the baseline. `--reps N`
//! repeats every workload `N` times and records the median elapsed
//! time (recommended: `--reps 3` when regenerating `BENCH_sim.json`,
//! so a scheduler hiccup on the bench host cannot masquerade as a
//! regression); statistics must be identical across repetitions or the
//! run aborts. For every workload the run records a
//! [`RunStats::fingerprint`] and a speedup relative to the 1-shard
//! baseline, and **exits nonzero if any sharded run's statistics
//! diverge from the sequential run's** (the gate covers the
//! event-driven active-set engine's sparsest workloads — `idle` and
//! `sparse_bfs` — alongside the dense ones, so an active-set
//! scheduling divergence fails the build).
//!
//! `--check PATH` also compares every workload's 1-shard
//! `stats_fingerprint`, and its per-phase fingerprints, against a
//! previously written `BENCH_sim.json`, and exits nonzero on any
//! difference — so a change that moves every shard count the same way
//! is caught too. A checking run writes a file only when `--out` is
//! given. CI runs `--quick --shards 1,4 --check BENCH_sim.json` as the
//! simulator's determinism and fingerprint gate. An unknown flag or a
//! malformed value prints the accepted flags and exits 2.
//!
//! Two workloads run at **large scale** — `large_bfs` and
//! `large_flood` on a 10⁶-node grid (40 000 nodes under `--quick`, so
//! the CI determinism gate exercises the same code path at CI cost) —
//! covering the memory-lean u32/CSR representations at the graph sizes
//! the shortcut-quality experiments need.

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
    /// Per-phase breakdown for composed (Session) workloads:
    /// `(label, rounds, messages, fingerprint)`; empty for
    /// single-protocol workloads.
    phases: Vec<(String, u64, u64, u64)>,
}

impl Measurement {
    fn from_stats(name: &str, g: &Graph, shards: usize, stats: &RunStats, secs: f64) -> Self {
        Measurement {
            name: name.to_string(),
            n: g.n(),
            m: g.m(),
            shards,
            rounds: stats.rounds,
            messages: stats.messages,
            elapsed_s: secs,
            stats_fingerprint: stats.fingerprint(),
            speedup_vs_1shard: 1.0,
            phases: Vec::new(),
        }
    }

    fn json(&self) -> String {
        let phases = if self.phases.is_empty() {
            String::new()
        } else {
            let body = self
                .phases
                .iter()
                .map(|(label, rounds, messages, fp)| {
                    format!(
                        concat!(
                            "{{\"label\":\"{}\",\"rounds\":{},",
                            "\"messages\":{},\"fingerprint\":\"{:#018x}\"}}"
                        ),
                        label, rounds, messages, fp
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(",\"phases\":[{body}]")
        };
        format!(
            concat!(
                "{{\"name\":\"{}\",\"n\":{},\"m\":{},\"shards\":{},",
                "\"rounds\":{},\"messages\":{},\"elapsed_s\":{:.6},",
                "\"rounds_per_s\":{:.1},\"messages_per_s\":{:.1},",
                "\"stats_fingerprint\":\"{:#018x}\",\"speedup_vs_1shard\":{:.3}{}}}"
            ),
            self.name,
            self.n,
            self.m,
            self.shards,
            self.rounds,
            self.messages,
            self.elapsed_s,
            self.rounds as f64 / self.elapsed_s,
            self.messages as f64 / self.elapsed_s,
            self.stats_fingerprint,
            self.speedup_vs_1shard,
            phases,
        )
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
    Measurement::from_stats(name, g, shards, &stats, t.elapsed().as_secs_f64())
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
    Measurement::from_stats(
        "large_bfs",
        g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
}

fn bench_multi_bfs(g: &Graph, instances: usize, shards: usize) -> Measurement {
    let spec = multi_bfs_spec(g.n(), instances);
    let t = Instant::now();
    let out = Session::new(g, cfg_with(shards, 10_000_000))
        .run(MultiBfs::new(spec))
        .expect("multi_bfs");
    Measurement::from_stats(
        "multi_bfs",
        g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
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
    Measurement::from_stats(
        "multi_aggregate",
        g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
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
    let mut m = Measurement::from_stats(
        "session_pipeline",
        g,
        shards,
        session.stats(),
        t.elapsed().as_secs_f64(),
    );
    m.phases = session
        .phases()
        .iter()
        .map(|p| (p.label.clone(), p.rounds, p.messages, p.fingerprint()))
        .collect();
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
    Measurement::from_stats("idle", g, shards, &stats, t.elapsed().as_secs_f64())
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
    Measurement::from_stats(
        "sparse_bfs",
        &g,
        shards,
        &out.stats,
        t.elapsed().as_secs_f64(),
    )
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
    let mut m = Measurement::from_stats(
        "chaos",
        g,
        shards,
        session.stats(),
        t.elapsed().as_secs_f64(),
    );
    m.phases = session
        .phases()
        .iter()
        .map(|p| (p.label.clone(), p.rounds, p.messages, p.fingerprint()))
        .collect();
    m
}

fn bench_saturate(g: &Graph, rounds: u64, shards: usize) -> Measurement {
    let t = Instant::now();
    let stats = Session::new(g, cfg_with(shards, 10_000_000))
        .run(Saturate::new(rounds))
        .expect("saturate");
    Measurement::from_stats("saturate", g, shards, &stats, t.elapsed().as_secs_f64())
}

const USAGE: &str = "usage: sim_throughput [--quick] [--shards K[,K2,...]] [--reps N] \
                     [--instances N] [--out PATH] [--check PATH] [--help]";

/// The parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    quick: bool,
    /// Shard counts to sweep, 1 first.
    shards: Vec<usize>,
    reps: usize,
    /// Multi-BFS instance count override.
    instances: Option<usize>,
    /// Explicit output path.
    out: Option<String>,
    /// Committed `BENCH_sim.json` to compare fingerprints against.
    check: Option<String>,
}

fn count_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, ArgsError> {
    let raw = flag_value(it, flag)?;
    match raw.parse() {
        Ok(k) if k >= 1 => Ok(k),
        _ => Err(ArgsError::Bad(format!(
            "sim_throughput: {flag} needs a positive count, got {raw:?}"
        ))),
    }
}

/// Parses the command line (program name excluded). `--shards 1,4` is a
/// comma-separated sweep and `--shards 4` is shorthand for `1,4`: shard
/// count 1 is always included as the baseline and measured first.
fn parse_args(args: &[String]) -> Result<Args, ArgsError> {
    let mut a = Args {
        quick: false,
        shards: vec![1],
        reps: 1,
        instances: None,
        out: None,
        check: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => a.quick = true,
            "--shards" => {
                for piece in flag_value(&mut it, "--shards")?.split(',') {
                    match piece.trim().parse::<usize>() {
                        Ok(k) if k >= 1 => {
                            if !a.shards.contains(&k) {
                                a.shards.push(k);
                            }
                        }
                        _ => {
                            return Err(ArgsError::Bad(format!(
                                "sim_throughput: bad --shards value {piece:?}"
                            )))
                        }
                    }
                }
            }
            "--reps" => a.reps = count_value(&mut it, "--reps")?,
            "--instances" => a.instances = Some(count_value(&mut it, "--instances")?),
            "--out" => a.out = Some(flag_value(&mut it, "--out")?.to_string()),
            "--check" => a.check = Some(flag_value(&mut it, "--check")?.to_string()),
            "--help" | "-h" => return Err(ArgsError::Help),
            other => {
                return Err(ArgsError::Bad(format!(
                    "sim_throughput: unknown argument {other:?}"
                )))
            }
        }
    }
    Ok(a)
}

/// The value of `"key":` in one line of a `BENCH_sim.json`, quotes
/// stripped.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Every fingerprint one `BENCH_sim.json` workload line records, in
/// order: the stats fingerprint, then one per phase.
fn fingerprints(line: &str) -> Vec<&str> {
    line.split("fingerprint\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

/// Compares this run's 1-shard fingerprints against a committed
/// `BENCH_sim.json`; returns one line per difference.
fn check_fingerprints(committed: &str, all: &[Measurement]) -> Vec<String> {
    let want: Vec<(&str, Vec<&str>)> = committed
        .lines()
        .filter(|line| json_field(line, "shards") == Some("1"))
        .filter_map(|line| Some((json_field(line, "name")?, fingerprints(line))))
        .collect();
    let ran: Vec<&Measurement> = all.iter().filter(|m| m.shards == 1).collect();
    let mut diffs = Vec::new();
    for m in &ran {
        let json = m.json();
        let got = fingerprints(&json);
        match want.iter().find(|(name, _)| *name == m.name) {
            None => diffs.push(format!("{}: not in the committed file", m.name)),
            Some((_, w)) if *w != got => diffs.push(format!(
                "{}: fingerprints {got:?} != committed {w:?}",
                m.name
            )),
            Some(_) => {}
        }
    }
    for (name, _) in &want {
        if !ran.iter().any(|m| m.name == *name) {
            diffs.push(format!("{name}: committed but not run"));
        }
    }
    diffs
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
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| e.exit(USAGE));
    let Args {
        quick,
        shards: shard_sweep,
        reps,
        ..
    } = args;
    // Read the committed file before anything can overwrite it.
    let committed = args.check.as_ref().map(|path| {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("sim_throughput --check: cannot read {path}: {e}"));
        let mode = if quick { "quick" } else { "full" };
        let want_mode = json_field(&json, "mode").unwrap_or("?");
        if want_mode != mode {
            ArgsError::Bad(format!(
                "sim_throughput: committed {path} is a \"{want_mode}\" run; \
                 this is a \"{mode}\" run — modes must match to compare"
            ))
            .exit(USAGE);
        }
        json
    });

    let side = if quick { 40 } else { 100 };
    // 10⁶ nodes at full scale; still well past any cache under --quick.
    let big_side = if quick { 200 } else { 1000 };
    let instances = args.instances.unwrap_or(if quick { 8 } else { 32 });
    let g = generators::grid(side, side);
    let big = generators::grid(big_side, big_side);

    let mut all: Vec<Measurement> = Vec::new();
    for &k in &shard_sweep {
        eprintln!("== shards = {k} ==");
        for m in [
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
        ] {
            eprintln!(
                "{:>16}  n={} rounds={} messages={} elapsed={:.3}s  ({:.0} rounds/s, {:.0} msgs/s)",
                m.name,
                m.n,
                m.rounds,
                m.messages,
                m.elapsed_s,
                m.rounds as f64 / m.elapsed_s,
                m.messages as f64 / m.elapsed_s,
            );
            all.push(m);
        }
    }

    // Fill in speedups against the 1-shard baseline of each workload.
    let baselines: Vec<(String, f64)> = all
        .iter()
        .filter(|m| m.shards == 1)
        .map(|m| (m.name.clone(), m.elapsed_s))
        .collect();
    for m in &mut all {
        if let Some((_, base)) = baselines.iter().find(|(n, _)| *n == m.name) {
            m.speedup_vs_1shard = base / m.elapsed_s;
        }
    }
    for m in all.iter().filter(|m| m.shards != 1) {
        eprintln!(
            "speedup {:>16} @ {} shards: {:.2}x",
            m.name, m.shards, m.speedup_vs_1shard
        );
    }

    // Shard determinism gate: every sharded run's stats fingerprint
    // must equal the sequential run's for the same workload.
    let mut diverged = false;
    for m in all.iter().filter(|m| m.shards != 1) {
        let base = all
            .iter()
            .find(|b| b.shards == 1 && b.name == m.name)
            .expect("baseline measured first");
        if m.stats_fingerprint != base.stats_fingerprint {
            diverged = true;
            eprintln!(
                "DETERMINISM VIOLATION: {} stats fingerprint {:#018x} at {} shards \
                 != {:#018x} at 1 shard",
                m.name, m.stats_fingerprint, m.shards, base.stats_fingerprint
            );
        }
        if m.phases != base.phases {
            diverged = true;
            eprintln!(
                "DETERMINISM VIOLATION: {} per-phase breakdown at {} shards \
                 differs from the 1-shard run",
                m.name, m.shards
            );
        }
    }

    let body = all
        .iter()
        .map(Measurement::json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"sim_throughput\",\n  \"mode\": \"{}\",\n",
            "  \"shard_sweep\": {:?},\n  \"determinism\": \"{}\",\n",
            "  \"workloads\": [\n    {}\n  ]\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        shard_sweep,
        if diverged { "DIVERGED" } else { "ok" },
        body
    );
    // A checking run never overwrites the file it compares against
    // unless an output path is explicit.
    let out_path = match (&args.out, &committed) {
        (Some(path), _) => Some(path.as_str()),
        (None, None) => Some("BENCH_sim.json"),
        (None, Some(_)) => None,
    };
    if let Some(path) = out_path {
        std::fs::write(path, &json).expect("write BENCH_sim.json");
        eprintln!("wrote {path}");
    }
    // A machine-readable copy for CI logs.
    println!("{json}");
    let mut failed = false;
    if diverged {
        eprintln!("sim_throughput: sharded RunStats diverged from the sequential engine");
        failed = true;
    } else {
        eprintln!("shard determinism check: ok");
    }
    if let (Some(committed), Some(path)) = (&committed, &args.check) {
        let diffs = check_fingerprints(committed, &all);
        for d in &diffs {
            eprintln!("FINGERPRINT MISMATCH vs {path}: {d}");
        }
        if diffs.is_empty() {
            eprintln!("fingerprint check against {path}: ok");
        } else {
            eprintln!("(regenerate with `sim_throughput --quick --shards 1,4 --out {path}` if intentional)");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ArgsError> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_ci_command_line() {
        let a = parse(&["--quick", "--shards", "4", "--check", "BENCH_sim.json"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.shards, vec![1, 4]);
        assert_eq!(a.reps, 1);
        assert_eq!(a.check.as_deref(), Some("BENCH_sim.json"));
        assert_eq!(a.out, None);
        let a = parse(&["--shards", "2,1,8", "--reps", "3", "--instances", "5"]).unwrap();
        assert_eq!(a.shards, vec![1, 2, 8]);
        assert_eq!((a.reps, a.instances), (3, Some(5)));
    }

    #[test]
    fn rejects_bad_flags_and_answers_help() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        for bad in [
            &["--shards"][..],
            &["--shards", "--quick"],
            &["--shards", "0"],
            &["--reps", "x"],
            &["--check"],
            &["--quik"],
        ] {
            assert!(
                matches!(parse(bad), Err(ArgsError::Bad(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn check_reads_back_what_the_bench_writes() {
        let mut m = Measurement::from_stats(
            "pipe",
            &generators::path(3),
            1,
            &RunStats::new(&generators::path(3)),
            1.0,
        );
        m.phases = vec![("bfs".into(), 3, 4, 0xAB), ("agg".into(), 5, 6, 0xCD)];
        let mut sharded = m.clone();
        sharded.shards = 4;
        let json = format!(
            "{{\n  \"mode\": \"quick\",\n    {},\n    {}\n}}",
            m.json(),
            sharded.json()
        );
        assert!(check_fingerprints(&json, &[m.clone()]).is_empty());
        let mut moved = m.clone();
        moved.stats_fingerprint ^= 1;
        assert_eq!(check_fingerprints(&json, &[moved]).len(), 1);
        let mut phase_moved = m.clone();
        phase_moved.phases[1].3 ^= 1;
        assert_eq!(check_fingerprints(&json, &[phase_moved]).len(), 1);
        let mut renamed = m;
        renamed.name = "other".into();
        assert_eq!(check_fingerprints(&json, &[renamed]).len(), 2);
    }
}
