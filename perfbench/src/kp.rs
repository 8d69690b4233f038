//! The construction workloads: cold `distributed_shortcuts` runs on the
//! D = 4 highway lower-bound family, one caller in a closed loop.
//!
//! * `kp_build`: 113 path parts on the n = 12,883 member, default
//!   (auto) shards — dense multi-BFS traffic through the sharded engine.
//! * `kp_many_parts`: 810 BFS-ball parts on the n = 6,481 member, where
//!   per-instance multi-BFS state (Θ(n · parts)) dominates, not traffic.
//! * `kp_faulty`: 24 path parts on the n = 601 member under drops,
//!   delays, corruption, three permanent crashes and one transient
//!   crash — the only traffic through `Reliable` and `core::degrade`.
//!
//! The inputs are pinned ([`INPUT_SEED`]), so every run of a workload
//! constructs the same shortcuts with the same exact counts.

use std::collections::HashSet;
use std::time::Instant;

use lcs_congest::{Crash, FaultPlan, SimConfig};
use lcs_core::{distributed_shortcuts, splitmix64, DistributedConfig, DistributedOutcome};
use lcs_graph::{Graph, HighwayGraph, NodeId};
use lcs_shortcut::{verify, DilationMode, Partition, Quality};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::measure::{median, peak_rss_mb, ProcSnapshot};
use crate::report::{phase_name, Report};
use crate::Ctx;

/// Which construction workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `kp_build`.
    Build,
    /// `kp_many_parts`.
    ManyParts,
    /// `kp_faulty`.
    Faulty,
}

/// Seed of every input here: the construction's randomness, the ball
/// centres of `kp_many_parts` and the fault placement of `kp_faulty`.
/// It is pinned rather than taken from `--seed`, so `rounds`,
/// `messages`, `congestion` and `dilation` repeat to the digit in every
/// run and a change of a few percent in them is a real change.
const INPUT_SEED: u64 = 1;

/// One generated input: graph, parts and configuration (with the
/// fault plan on `kp_faulty`).
struct Instance {
    graph: Graph,
    partition: Partition,
    cfg: DistributedConfig,
    generate_s: f64,
    /// On `kp_faulty`, the fault-free construction of the same input:
    /// its messages and outcome fingerprint.
    clean: Option<(u64, u64)>,
}

/// Path nodes of the highway member (`side²`, Γ = ℓ = side); the
/// generator adds the highway tree on top.
fn path_nodes(kind: Kind, tiny: bool) -> usize {
    match (kind, tiny) {
        (Kind::Build, false) => 113 * 113,
        (Kind::ManyParts, false) => 80 * 80,
        (Kind::Faulty, false) => 24 * 24,
        (Kind::Build, true) | (Kind::ManyParts, true) => 20 * 20,
        (Kind::Faulty, true) => 12 * 12,
    }
}

fn instance(kind: Kind, ctx: &mut Ctx) -> Instance {
    let span = ctx.tracer.enter("graph.HighwayGraph::balanced", "graph", 0);
    let t = Instant::now();
    let hw = HighwayGraph::balanced(path_nodes(kind, ctx.tiny), 4).expect("valid highway size");
    let generate_s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(span, &[("n", hw.n() as u64)]);
    let graph = hw.graph().clone();

    let span = ctx.tracer.enter("shortcut.Partition", "shortcut", 0);
    let partition = match kind {
        Kind::ManyParts => {
            let balls = if ctx.tiny { 50 } else { 810 };
            let mut rng = ChaCha8Rng::seed_from_u64(INPUT_SEED);
            Partition::bfs_balls(&graph, balls, &mut rng)
        }
        Kind::Build | Kind::Faulty => {
            Partition::new(&graph, hw.path_parts()).expect("path parts are valid")
        }
    };
    ctx.tracer
        .exit(span, &[("parts", partition.num_parts() as u64)]);

    let faults = (kind == Kind::Faulty).then(|| fault_plan(&graph, &partition, INPUT_SEED));
    let cfg = DistributedConfig {
        seed: splitmix64(INPUT_SEED ^ 0xC0_5EED),
        faults,
        ..DistributedConfig::default()
    };
    let clean = (kind == Kind::Faulty).then(|| {
        let clean = DistributedConfig {
            faults: None,
            ..cfg.clone()
        };
        let span = ctx.tracer.enter("core.distributed_shortcuts", "core", 0);
        let out = distributed_shortcuts(&graph, &partition, &clean).unwrap_or_else(|e| {
            eprintln!("perfbench: fault-free distributed_shortcuts failed: {e}");
            std::process::exit(1);
        });
        ctx.tracer.exit(span, &[("messages", out.total_messages)]);
        (out.total_messages, outcome_fingerprint(&out))
    });
    Instance {
        graph,
        partition,
        cfg,
        generate_s,
        clean,
    }
}

/// The fault budget of `adversary_bench`: 5% drops, 3% delays of up to
/// two rounds, 5% corruption, three permanent crashes on hash-picked
/// nodes that are neither node 0 (the detection root) nor a part
/// leader, and one transient crash that rejoins at round 40.
fn fault_plan(graph: &Graph, partition: &Partition, seed: u64) -> FaultPlan {
    let n = graph.n() as u64;
    let leaders: HashSet<NodeId> = (0..partition.num_parts())
        .map(|i| partition.leader(i))
        .collect();
    let mut picked: HashSet<NodeId> = HashSet::new();
    let mut crashes = Vec::new();
    let mut ctr = 0u64;
    while crashes.len() < 4 {
        let v = (splitmix64(seed ^ 0xADF0_0D5E ^ ctr) % n) as NodeId;
        ctr += 1;
        if v == 0 || leaders.contains(&v) || !picked.insert(v) {
            continue;
        }
        crashes.push(Crash {
            node: v,
            at_round: 2,
            recover_at: (crashes.len() == 3).then_some(40),
        });
    }
    FaultPlan {
        drop_rate: 0.05,
        delay_rate: 0.03,
        max_delay: 2,
        corrupt_rate: 0.05,
        crashes,
        fault_seed: splitmix64(seed ^ 0xFA_0175),
    }
}

/// Everything a run decided, folded: costs, engine fingerprints, the
/// shortcut edges, largeness and the excision set. Two runs of one
/// input must agree on it exactly.
fn outcome_fingerprint(out: &DistributedOutcome) -> u64 {
    let mut h = splitmix64(out.total_rounds ^ 0x0D15_7B17);
    let mut fold = |x: u64| h = splitmix64(h ^ x);
    fold(out.total_messages);
    fold(out.stats.fingerprint());
    fold(u64::from(out.accepted_guess));
    for s in &out.phase_stats {
        fold(s.fingerprint());
    }
    for i in 0..out.shortcuts.num_parts() {
        fold(0xED6E ^ i as u64);
        for e in out.shortcuts.edges(i) {
            fold(u64::from(e.0));
        }
    }
    for &large in &out.is_large {
        fold(u64::from(large));
    }
    if let Some(d) = &out.degraded {
        fold(d.extra_rounds);
        for &v in &d.excluded_nodes {
            fold(u64::from(v));
        }
    }
    h
}

/// Per-operation host costs of one construction.
struct OpCost {
    wall_s: f64,
    proc: ProcSnapshot,
}

fn construct(inst: &Instance, ctx: &mut Ctx, op: u64) -> (DistributedOutcome, OpCost) {
    let before = ProcSnapshot::now();
    let t = Instant::now();
    let op_span = ctx.tracer.enter("op.construct", "bench", op);
    let span = ctx.tracer.enter("core.distributed_shortcuts", "core", op);
    let out = distributed_shortcuts(&inst.graph, &inst.partition, &inst.cfg);
    let counts = out.as_ref().map_or(Vec::new(), |o| {
        vec![("rounds", o.total_rounds), ("messages", o.total_messages)]
    });
    ctx.tracer.exit(span, &counts);
    ctx.tracer.exit(op_span, &[]);
    let wall_s = t.elapsed().as_secs_f64();
    let proc = ProcSnapshot::now().since(&before);
    let out = out.unwrap_or_else(|e| {
        eprintln!("perfbench: distributed_shortcuts failed: {e}");
        std::process::exit(1);
    });
    (out, OpCost { wall_s, proc })
}

/// Runs one construction workload.
pub fn run(kind: Kind, ctx: &mut Ctx) -> Report {
    let mut r = Report::default();

    let inst = r.time_setup(|| instance(kind, ctx));
    let mut generate_s = vec![inst.generate_s];
    eprintln!(
        "perfbench: n={} m={} parts={}",
        inst.graph.n(),
        inst.graph.m(),
        inst.partition.num_parts()
    );

    // The first construction warms the allocator and page tables; its
    // output is the reference every timed sample must reproduce.
    let (first, _) = construct(&inst, ctx, 0);
    let reference = outcome_fingerprint(&first);
    r.attempted = 1;

    let mut costs: Vec<OpCost> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let loop_start = ProcSnapshot::now();
    let start = Instant::now();
    while !ctx.done(costs.len(), r.setup_s.len(), start.elapsed().as_secs_f64()) {
        let op = costs.len() as u64 + 1;
        // A traced run alternates traced and untraced samples, so the
        // tracing overhead is measured within one run.
        let traced = ctx.tracer.set_paused(op.is_multiple_of(2));
        let (out, cost) = construct(&inst, ctx, op);
        r.attempted += 1;
        if outcome_fingerprint(&out) != reference {
            r.fail(1, format!("construction {op} differs from the first"));
        }
        if traced {
            traced_ms.push(cost.wall_s * 1e3);
        } else {
            untraced_ms.push(cost.wall_s * 1e3);
        }
        costs.push(cost);
        if ctx.setup_due(&r.setup_s, start.elapsed().as_secs_f64()) {
            let again = r.time_setup(|| instance(kind, ctx));
            generate_s.push(again.generate_s);
            if again.clean != inst.clean {
                r.fail(1, "a repeated set-up differs from the first".to_string());
            }
        }
    }
    ctx.tracer.set_paused(false);
    r.set("graph.generate_s", median(&generate_s));
    let contention = ProcSnapshot::now().since(&loop_start);
    r.set("peak_rss_mb", peak_rss_mb());

    let wall: Vec<f64> = costs.iter().map(|c| c.wall_s).collect();
    let p50 = median(&wall);
    r.samples_ms = wall.iter().map(|w| w * 1e3).collect();
    r.set("bench.samples", costs.len() as f64);
    r.set(
        "bench.ops_per_s",
        costs.len() as f64 / wall.iter().sum::<f64>(),
    );
    r.set("bench.op_p50_ms", p50 * 1e3);
    r.set("host.caller_runq_wait_s", contention.runq_wait_s);
    r.set("host.steal_s", contention.steal_s);
    if ctx.tracer.on() && !untraced_ms.is_empty() {
        r.set(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&untraced_ms),
        );
    }

    let shards = SimConfig {
        shards: inst.cfg.shards,
        ..SimConfig::default()
    }
    .resolved_shards(inst.graph.n());
    r.set("congest.shards", shards as f64);
    let per_op = |f: &dyn Fn(&OpCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    r.set("congest.cpu_s", per_op(&|c| c.proc.cpu_s));
    r.set(
        "congest.parallel_eff",
        per_op(&|c| c.proc.cpu_s / (c.wall_s * shards as f64)),
    );
    r.set(
        "congest.caller_runq_wait_s",
        per_op(&|c| c.proc.runq_wait_s),
    );
    r.set(
        "congest.minor_faults",
        per_op(&|c| c.proc.minor_faults as f64),
    );
    r.set("congest.messages_per_s", first.total_messages as f64 / p50);
    r.set("congest.rounds_per_s", first.total_rounds as f64 / p50);

    record_counts(&mut r, &first);
    // Messages a fault-free network needs for the same input.
    let useful = inst
        .clean
        .map_or(1.0, |(m, _)| m as f64 / first.total_messages as f64);
    r.set("congest.useful_ratio", useful);

    check(&mut r, &inst, &first, ctx);
    r
}

/// The exact counts of one construction.
pub(crate) fn record_counts(r: &mut Report, out: &DistributedOutcome) {
    r.set("rounds", out.total_rounds as f64);
    r.set("messages", out.total_messages as f64);
    for s in &out.phase_stats {
        let p = phase_name(&s.label);
        r.add(&format!("congest.{p}.rounds"), s.rounds as f64);
        r.add(&format!("congest.{p}.messages"), s.messages as f64);
        r.add("congest.dropped", s.dropped as f64);
        r.add("congest.delayed", s.delayed as f64);
        r.add("congest.corrupted", s.corrupted as f64);
    }
    let g = &out.guesses;
    r.set("core.guesses", g.len() as f64);
    r.set(
        "core.guess_accept_ratio",
        g.iter().filter(|x| x.accepted).count() as f64 / g.len().max(1) as f64,
    );
    if let Some(acc) = g.iter().find(|x| x.accepted) {
        r.set("core.num_large", acc.num_large as f64);
    }
    r.set(
        "core.max_queue",
        g.iter().map(|x| x.max_queue).max().unwrap_or(0) as f64,
    );
    r.set(
        "core.overflowed",
        g.iter().filter(|x| x.overflowed).count() as f64,
    );
    if let Some(d) = &out.degraded {
        r.set("core.detect_rounds", d.extra_rounds as f64);
        r.set("core.excluded_nodes", d.excluded_nodes.len() as f64);
        r.set(
            "core.detect_share",
            d.extra_rounds as f64 / out.total_rounds as f64,
        );
    }
}

/// Checks the reference output (every sample reproduced it): the
/// shortcuts pass `verify` within the paper's bounds at the accepted
/// parameters, and under faults the degradation contract holds —
/// permanent crashes are excised, the rejoined node is kept.
fn check(r: &mut Report, inst: &Instance, out: &DistributedOutcome, ctx: &mut Ctx) {
    let claim = Quality {
        congestion: out.params.congestion_bound().min(u64::from(u32::MAX)) as u32,
        dilation: out.params.dilation_bound().min(u64::from(u32::MAX)) as u32,
    };
    let span = ctx.tracer.enter("shortcut.verify", "shortcut", 0);
    let t = Instant::now();
    let verdict = verify(
        &inst.graph,
        &inst.partition,
        &out.shortcuts,
        Some(claim),
        DilationMode::Exact,
    );
    r.set("shortcut.verify_s", t.elapsed().as_secs_f64());
    ctx.tracer.exit(span, &[]);
    match verdict {
        Ok(report) => {
            r.set("congestion", f64::from(report.quality.congestion));
            r.set("dilation", f64::from(report.quality.dilation));
        }
        Err(e) => {
            r.fail_all(format!("shortcuts fail verify: {e}"));
            r.set("congestion", 0.0);
            r.set("dilation", 0.0);
        }
    }
    let Some(plan) = &inst.cfg.faults else { return };
    let Some(d) = &out.degraded else {
        r.fail_all("faulty run reported no degradation outcome".to_string());
        return;
    };
    if !d.completed {
        r.fail_all("survivors did not complete".to_string());
    }
    for c in &plan.crashes {
        let excised = d.excluded_nodes.contains(&c.node);
        if c.recover_at.is_none() && !excised {
            r.fail_all(format!("permanently crashed node {} kept", c.node));
        }
        if c.recover_at.is_some() && excised {
            r.fail_all(format!("rejoined node {} excised", c.node));
        }
    }
}
