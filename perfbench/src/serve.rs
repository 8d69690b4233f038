//! `serve_stream`: reads beside writes on a frozen shortcut index.
//!
//! The set-up builds the index with `build_index_distributed` on the
//! n = 1,641 highway member and round-trips it through
//! `to_bytes`/`from_bytes`. One caller then answers SSSP, aggregate and
//! MST queries in equal shares, and re-weights the index
//! (`CustomizedIndex::with_weights`) after every 32 queries, cycling
//! through three weight assignments. The engine is bypassed: queries
//! run on the customized tables, not on the simulator.
//!
//! Min-cut is left out on purpose: at 240–254 ms against 0.25–4.3 ms
//! for the other kinds, one min-cut in a handful of queries would make
//! every upper percentile measure min-cut alone.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lcs_congest::{AggOp, SimConfig};
use lcs_core::{build_index_distributed, splitmix64, DistributedConfig, DistributedOutcome};
use lcs_graph::{dijkstra, kruskal, HighwayGraph, NodeId, WeightedGraph};
use lcs_serve::{aggregate_value, per_query_seed, CustomizedIndex, Query, QueryResult, ServePool};
use lcs_shortcut::{verify, DilationMode, Partition, ShortcutIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::kp::record_counts;
use crate::measure::{median, peak_rss_mb, quantile, ProcSnapshot};
use crate::report::Report;
use crate::Ctx;

/// Seed of the index's graph weights and of its construction. Pinned
/// rather than taken from `--seed`, so the index, and with it `rounds`,
/// `messages`, `congestion` and `dilation`, is the same in every run;
/// the seed drives the query stream and the later weight assignments.
const INPUT_SEED: u64 = 1;
/// Queries answered between two re-weights.
const QUERIES_PER_REWEIGHT: usize = 32;
/// Weight assignments the stream cycles through (the first is the
/// index's own).
const EPOCHS: usize = 3;

/// What the set-up produces besides the customized index.
struct Served {
    index: Arc<ShortcutIndex>,
    outcome: DistributedOutcome,
    weights: Vec<Vec<u64>>,
    index_bytes: usize,
    round_trip_ok: bool,
}

/// What the steps of one set-up took.
struct SetupCost {
    generate_s: f64,
    build_s: f64,
    build: ProcSnapshot,
    to_bytes_ms: f64,
    from_bytes_ms: f64,
    customize_ms: f64,
}

fn random_weights(m: usize, seed: u64) -> Vec<u64> {
    (0..m as u64)
        .map(|e| splitmix64(seed ^ (e << 8)) % 100 + 1)
        .collect()
}

fn setup(ctx: &mut Ctx) -> (Served, CustomizedIndex, SetupCost) {
    let span = ctx.tracer.enter("graph.HighwayGraph::balanced", "graph", 0);
    let t = Instant::now();
    let side = if ctx.tiny { 12 } else { 40 };
    let hw = HighwayGraph::balanced(side * side, 4).expect("valid highway size");
    let generate_s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(span, &[("n", hw.n() as u64)]);
    let g = hw.graph().clone();

    let span = ctx.tracer.enter("shortcut.Partition", "shortcut", 0);
    let partition = Partition::new(&g, hw.path_parts()).expect("path parts are valid");
    ctx.tracer.exit(span, &[]);
    let mut rng = ChaCha8Rng::seed_from_u64(INPUT_SEED);
    let wg = WeightedGraph::with_random_weights(g, 100, &mut rng);
    let weights: Vec<Vec<u64>> = (0..EPOCHS)
        .map(|e| match e {
            0 => wg.weights().to_vec(),
            _ => random_weights(wg.graph().m(), splitmix64(ctx.seed ^ e as u64)),
        })
        .collect();

    let cfg = DistributedConfig {
        seed: splitmix64(INPUT_SEED ^ 0xC0_5EED),
        ..DistributedConfig::default()
    };
    let span = ctx.tracer.enter("core.build_index_distributed", "core", 0);
    let before = ProcSnapshot::now();
    let t = Instant::now();
    let (index, outcome) = build_index_distributed(wg.graph(), wg.weights(), &partition, &cfg)
        .unwrap_or_else(|e| {
            eprintln!("perfbench: build_index_distributed failed: {e}");
            std::process::exit(1);
        });
    let build_s = t.elapsed().as_secs_f64();
    let build = ProcSnapshot::now().since(&before);
    ctx.tracer.exit(
        span,
        &[
            ("rounds", outcome.total_rounds),
            ("messages", outcome.total_messages),
        ],
    );

    let span = ctx
        .tracer
        .enter("shortcut.ShortcutIndex::to_bytes", "shortcut", 0);
    let t = Instant::now();
    let bytes = index.to_bytes();
    let to_bytes_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.tracer.exit(span, &[("bytes", bytes.len() as u64)]);
    let span = ctx
        .tracer
        .enter("shortcut.ShortcutIndex::from_bytes", "shortcut", 0);
    let t = Instant::now();
    let reloaded = ShortcutIndex::from_bytes(&bytes);
    let from_bytes_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.tracer.exit(span, &[]);
    let (index, round_trip_ok) = match reloaded {
        Ok(r) if r == index => (Arc::new(r), true),
        _ => (Arc::new(index), false),
    };

    let span = ctx
        .tracer
        .enter("serve.CustomizedIndex::baseline", "serve", 0);
    let t = Instant::now();
    let baseline = CustomizedIndex::baseline(Arc::clone(&index));
    let customize_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.tracer.exit(span, &[]);
    let served = Served {
        index,
        outcome,
        weights,
        index_bytes: bytes.len(),
        round_trip_ok,
    };
    let cost = SetupCost {
        generate_s,
        build_s,
        build,
        to_bytes_ms,
        from_bytes_ms,
        customize_ms,
    };
    (served, baseline, cost)
}

/// The `k`-th query of the 96-query cycle (`k = epoch · 32 + i`):
/// kinds rotate SSSP, aggregate, MST, so each gets a third.
fn query(k: usize, n: usize, seed: u64) -> Query {
    match k % 3 {
        0 => Query::sssp((splitmix64(seed ^ k as u64) % n as u64) as NodeId),
        1 => Query::Aggregate {
            op: if (k / 3).is_multiple_of(2) {
                AggOp::Sum
            } else {
                AggOp::Max
            },
        },
        _ => Query::Mst,
    }
}

/// Kind label of a query, for per-kind latency.
fn kind(q: &Query) -> &'static str {
    match q {
        Query::Sssp { .. } => "sssp",
        Query::Aggregate { .. } => "aggregate",
        Query::Mst => "mst",
        Query::MinCut => "min_cut",
    }
}

/// Compares a served answer with a centralized reference: Dijkstra for
/// SSSP, Kruskal for MST, a direct fold over each part for aggregates.
fn check_answer(
    cx: &CustomizedIndex,
    q: &Query,
    seed: u64,
    got: &QueryResult,
) -> Result<(), String> {
    let wg = cx.weighted_graph();
    match (q, got) {
        (Query::Sssp { source, .. }, QueryResult::Sssp { dist, .. }) => {
            if *dist == dijkstra(wg, *source) {
                Ok(())
            } else {
                Err(format!("sssp from {source} differs from dijkstra"))
            }
        }
        (Query::Mst, QueryResult::Mst { edges, weight, .. }) => {
            let reference = kruskal(wg);
            if *edges == reference.edges && *weight == reference.weight {
                Ok(())
            } else {
                Err(format!(
                    "mst weight {weight} differs from kruskal {}",
                    reference.weight
                ))
            }
        }
        (Query::Aggregate { op }, QueryResult::Aggregate { per_part }) => {
            let partition = cx.index().partition();
            let direct: Vec<u64> = (0..partition.num_parts())
                .map(|i| {
                    partition.part(i).iter().fold(op.identity(), |acc, &v| {
                        op.apply(acc, aggregate_value(seed, i, v))
                    })
                })
                .collect();
            if *per_part == direct {
                Ok(())
            } else {
                Err(format!("{op:?} aggregate differs from a direct fold"))
            }
        }
        (_, other) => Err(format!("{} query answered with {other:?}", kind(q))),
    }
}

/// Runs `serve_stream`.
pub fn run(ctx: &mut Ctx) -> Report {
    let mut r = Report::default();
    let (served, baseline, cost) = r.time_setup(|| setup(ctx));
    let mut costs = vec![cost];
    if !served.round_trip_ok {
        r.fail(1, "index does not survive to_bytes/from_bytes".to_string());
    }
    let index = Arc::clone(&served.index);
    let n = index.graph().n();
    eprintln!(
        "perfbench: n={} m={} parts={} index={} bytes",
        n,
        index.graph().m(),
        index.partition().num_parts(),
        served.index_bytes
    );
    check_index(&mut r, ctx, &served.index);

    let mut cx = Arc::new(baseline);
    let mut session = ServePool::with_customization(Arc::clone(&cx), 1).session();
    let mut seen: HashMap<usize, u64> = HashMap::new();
    let mut by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut query_s = Vec::new();
    let mut reweight_ms = Vec::new();
    let mut iterations = Vec::new();
    let mut phases = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let (mut epoch, mut i) = (0usize, 0usize);
    let loop_start = ProcSnapshot::now();
    let start = Instant::now();
    while !ctx.done(
        query_s.len(),
        r.setup_s.len(),
        start.elapsed().as_secs_f64(),
    ) {
        let k = epoch * QUERIES_PER_REWEIGHT + i;
        let q = query(k, n, ctx.seed);
        let qseed = per_query_seed(ctx.seed, k);
        let op = (query_s.len() + reweight_ms.len()) as u64;
        let traced = ctx.tracer.set_paused(op % 2 == 1);
        let t = Instant::now();
        let op_span = ctx.tracer.enter("op.query", "bench", op);
        let span = ctx
            .tracer
            .enter("serve.IndexedSession::answer", "serve", op);
        let got = session.answer(&q, qseed);
        ctx.tracer.exit(span, &[("kind", k as u64 % 3)]);
        ctx.tracer.exit(op_span, &[]);
        let dt = t.elapsed().as_secs_f64();
        r.attempted += 1;
        query_s.push(dt);
        by_kind.entry(kind(&q)).or_default().push(dt * 1e3);
        if traced {
            traced_ms.push(dt * 1e3);
        } else {
            untraced_ms.push(dt * 1e3);
        }
        match &got {
            QueryResult::Sssp { iterations: it, .. } => iterations.push(f64::from(*it)),
            QueryResult::Mst { phases: p, .. } => phases.push(f64::from(*p)),
            _ => {}
        }
        // The reference runs once per distinct (weights, query); later
        // answers must reproduce the first one exactly.
        let fp = got.fingerprint();
        match seen.get(&k) {
            Some(&first) if first != fp => {
                r.fail(1, format!("query {k} answered differently than before"));
            }
            Some(_) => {}
            None => {
                let span = ctx.tracer.enter("check.reference", "graph", op);
                if let Err(why) = check_answer(&cx, &q, qseed, &got) {
                    r.fail(1, why);
                }
                ctx.tracer.exit(span, &[]);
                seen.insert(k, fp);
            }
        }

        i += 1;
        if i == QUERIES_PER_REWEIGHT {
            i = 0;
            epoch = (epoch + 1) % EPOCHS;
            let w = served.weights[epoch].clone();
            let op = op + 1;
            let op_span = ctx.tracer.enter("op.reweight", "bench", op);
            let span = ctx
                .tracer
                .enter("serve.CustomizedIndex::with_weights", "serve", op);
            let t = Instant::now();
            let next = CustomizedIndex::with_weights(Arc::clone(&index), w);
            reweight_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ctx.tracer.exit(span, &[]);
            ctx.tracer.exit(op_span, &[]);
            r.attempted += 1;
            match next {
                Ok(next) => {
                    cx = Arc::new(next);
                    session = ServePool::with_customization(Arc::clone(&cx), 1).session();
                }
                Err(e) => r.fail(1, format!("reweight failed: {e}")),
            }
        }
        if ctx.setup_due(&r.setup_s, start.elapsed().as_secs_f64()) {
            let (again, _, cost) = r.time_setup(|| setup(ctx));
            let (a, b) = (&again.outcome, &served.outcome);
            if (a.total_rounds, a.total_messages, a.stats.fingerprint())
                != (b.total_rounds, b.total_messages, b.stats.fingerprint())
                || !again.round_trip_ok
            {
                r.fail(
                    1,
                    "a repeated index build differs from the first".to_string(),
                );
            }
            costs.push(cost);
        }
    }
    ctx.tracer.set_paused(false);
    record_setup(&mut r, &served, &costs);
    let contention = ProcSnapshot::now().since(&loop_start);
    r.set("peak_rss_mb", peak_rss_mb());

    let busy_s = query_s.iter().sum::<f64>() + reweight_ms.iter().sum::<f64>() * 1e-3;
    r.set("bench.ops_per_s", query_s.len() as f64 / busy_s);
    r.set("bench.op_p50_ms", median(&query_s) * 1e3);
    r.samples_ms = query_s.iter().map(|q| q * 1e3).collect();
    r.set("bench.samples", query_s.len() as f64);
    r.set("host.caller_runq_wait_s", contention.runq_wait_s);
    r.set("host.steal_s", contention.steal_s);
    r.set("serve.reweight_p50_ms", median(&reweight_ms));
    r.set("serve.reweight_p90_ms", quantile(&reweight_ms, 0.9));
    for (name, samples) in &by_kind {
        r.set(&format!("apps.{name}_p50_ms"), median(samples));
        r.set(&format!("apps.{name}_p90_ms"), quantile(samples, 0.9));
    }
    r.set("apps.sssp_iterations", median(&iterations));
    r.set("apps.mst_phases", median(&phases));
    if ctx.tracer.on() {
        if !untraced_ms.is_empty() {
            r.set(
                "trace.overhead_ratio",
                median(&traced_ms) / median(&untraced_ms),
            );
        }
        let mut setup_ms = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(index.aggregation_setup());
            setup_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        r.set("shortcut.aggregation_setup_ms", median(&setup_ms));
    }
    r
}

/// Metrics of the set-ups: medians of their step costs, and the index
/// build's exact counts.
fn record_setup(r: &mut Report, s: &Served, costs: &[SetupCost]) {
    let med = |f: &dyn Fn(&SetupCost) -> f64| median(&costs.iter().map(f).collect::<Vec<_>>());
    let shards = SimConfig::default().resolved_shards(s.index.graph().n());
    r.set("graph.generate_s", med(&|c| c.generate_s));
    r.set("serve.build_index_s", med(&|c| c.build_s));
    r.set("serve.customize_ms", med(&|c| c.customize_ms));
    r.set("shortcut.to_bytes_ms", med(&|c| c.to_bytes_ms));
    r.set("shortcut.from_bytes_ms", med(&|c| c.from_bytes_ms));
    r.set("shortcut.index_bytes", s.index_bytes as f64);
    r.set("congest.shards", shards as f64);
    r.set("congest.cpu_s", med(&|c| c.build.cpu_s));
    r.set(
        "congest.parallel_eff",
        med(&|c| c.build.cpu_s / (c.build_s * shards as f64)),
    );
    r.set("congest.caller_runq_wait_s", med(&|c| c.build.runq_wait_s));
    r.set(
        "congest.minor_faults",
        med(&|c| c.build.minor_faults as f64),
    );
    let build_s = med(&|c| c.build_s);
    r.set(
        "congest.messages_per_s",
        s.outcome.total_messages as f64 / build_s,
    );
    r.set(
        "congest.rounds_per_s",
        s.outcome.total_rounds as f64 / build_s,
    );
    r.set("congest.useful_ratio", 1.0);
    record_counts(r, &s.outcome);
}

/// Verifies the index's shortcuts against its certificate; their
/// measured quality is the workload's `congestion` and `dilation`.
fn check_index(r: &mut Report, ctx: &mut Ctx, index: &ShortcutIndex) {
    let span = ctx.tracer.enter("shortcut.verify", "shortcut", 0);
    let t = Instant::now();
    let verdict = verify(
        index.graph(),
        index.partition(),
        index.shortcuts(),
        index.meta().certificate,
        DilationMode::Exact,
    );
    r.set("shortcut.verify_s", t.elapsed().as_secs_f64());
    ctx.tracer.exit(span, &[]);
    match verdict {
        Ok(q) => {
            r.set("congestion", f64::from(q.quality.congestion));
            r.set("dilation", f64::from(q.quality.dilation));
        }
        Err(e) => {
            r.fail_all(format!("index shortcuts fail verify: {e}"));
            r.set("congestion", 0.0);
            r.set("dilation", 0.0);
        }
    }
}
