//! Service-layer throughput benchmark: queries/sec of the
//! [`ServePool`] front-end as a function of pool
//! size and batch size, plus the **build-vs-query amortization curve**
//! — the wall-clock case for preprocess-once, query-many — emitted as
//! `BENCH_serve.json`.
//!
//! Usage: `serve_throughput [--quick] [--pools K[,K2,...]] [--out PATH]
//! [--check PATH] [--help]`. The flags, the output policy and the exit
//! codes are [`lcs_bench::gate`]'s; the default sweep is `--pools 1,4`.
//! Every `(pool, batch)` fingerprint must equal the 1-worker one, and
//! `--check` pins the 1-worker fingerprints to the committed file. They
//! fold every answer's integer payload — SSSP distances, iterations and
//! rounds included — so the gate pins the served outputs, not just
//! their pool invariance.
//!
//! The amortization section times, for N ∈ {1, 4, 16, ...}:
//!
//! * `one_shot_s` — N × (full distributed construction + one answer),
//!   the cost of treating every request as a fresh pipeline run;
//! * `indexed_s`  — 1 × construction + N index-served answers.
//!
//! Serving N ≥ 16 mixed queries from one index must beat N one-shot
//! runs by ≥ 5× (the construction is repaid once instead of N times).

use lcs_bench::gate::{self, Doc, Gate, Row, Sweep};
use lcs_congest::AggOp;
use lcs_core::{build_index_distributed, DistributedConfig};
use lcs_graph::{HighwayGraph, HighwayParams, NodeId, WeightedGraph};
use lcs_serve::{per_query_seed, Query, ServePool};
use lcs_shortcut::{Partition, ShortcutIndex};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's mixed query stream: the four kinds round-robin, so
/// every cell exercises SSSP, aggregation, MST, and min-cut together.
fn mixed_queries(count: usize, n: usize) -> Vec<Query> {
    (0..count)
        .map(|i| match i % 4 {
            0 => Query::sssp(((i * 13) % n) as NodeId),
            1 => Query::Aggregate {
                op: if i % 8 == 1 { AggOp::Sum } else { AggOp::Max },
            },
            2 => Query::Mst,
            _ => Query::MinCut,
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Cell {
    pool: usize,
    batch: usize,
    elapsed_s: f64,
    fingerprint: u64,
}

impl Cell {
    fn json(&self) -> String {
        Row::default()
            .val("pool", self.pool)
            .val("batch", self.batch)
            .fixed("elapsed_s", self.elapsed_s, 6)
            .fixed("queries_per_s", self.batch as f64 / self.elapsed_s, 1)
            .fp("fingerprint", self.fingerprint)
            .end()
    }
}

#[derive(Debug, Clone)]
struct Amortization {
    n_queries: usize,
    one_shot_s: f64,
    indexed_s: f64,
}

impl Amortization {
    fn speedup(&self) -> f64 {
        self.one_shot_s / self.indexed_s
    }

    fn json(&self) -> String {
        Row::default()
            .val("n_queries", self.n_queries)
            .fixed("one_shot_s", self.one_shot_s, 6)
            .fixed("indexed_s", self.indexed_s, 6)
            .fixed("speedup", self.speedup(), 2)
            .end()
    }
}

const SERVE: Gate = Gate {
    bench: "serve_throughput",
    default_out: "BENCH_serve.json",
    sweep: Some(Sweep {
        flag: "--pools",
        key: "pool",
        default: &[1, 4],
    }),
    id_key: Some("batch"),
    extra_usage: "",
};

fn main() {
    let args = SERVE.from_env();
    let committed = SERVE.committed(&args);
    let quick = args.quick;
    let pool_sweep = &args.sweep;

    // The constant-diameter highway workload the paper's lower bound
    // lives on: Γ vertex-disjoint paths through a D=4 core.
    let hw = HighwayGraph::new(HighwayParams {
        num_paths: if quick { 4 } else { 8 },
        path_len: if quick { 12 } else { 40 },
        diameter: 4,
    })
    .expect("highway fixture");
    let g = hw.graph().clone();
    let partition = Partition::new(&g, hw.path_parts()).expect("path partition");
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let wg = WeightedGraph::with_random_weights(g, 100, &mut rng);
    // No `known_diameter`: a cold pipeline run doesn't get told D, it
    // pays the guess ladder — exactly the cost the index amortizes.
    let cfg = DistributedConfig::default();

    // --- Build (preprocess-once) ---
    let t = Instant::now();
    let (index, _) = build_index_distributed(wg.graph(), wg.weights(), &partition, &cfg)
        .expect("construction on the highway fixture");
    let build_s = t.elapsed().as_secs_f64();
    let index = Arc::new(index);

    // Serialization sanity on the real artifact: save → load must be
    // byte-exact (the persisted index is what a deployment would mmap).
    let bytes = index.to_bytes();
    let reloaded = ShortcutIndex::from_bytes(&bytes).expect("reload");
    assert_eq!(reloaded, *index, "save/load must round-trip");
    eprintln!(
        "build: n={} m={} parts={} elapsed={build_s:.3}s index={} bytes",
        wg.graph().n(),
        wg.graph().m(),
        partition.num_parts(),
        bytes.len()
    );

    // --- Throughput grid: pool sizes × batch sizes ---
    let batch_sizes: &[usize] = if quick { &[4, 16, 64] } else { &[16, 64, 256] };
    let batch_seed = 0x5EED_BA7C;
    let mut cells: Vec<Cell> = Vec::new();
    for &pool_size in pool_sweep {
        let pool = ServePool::new(Arc::clone(&index), pool_size);
        for &batch in batch_sizes {
            let queries = mixed_queries(batch, wg.graph().n());
            // Warm once (thread spawn, allocator), then measure.
            pool.serve(&queries, batch_seed);
            let t = Instant::now();
            let served = pool.serve(&queries, batch_seed);
            let cell = Cell {
                pool: pool_size,
                batch,
                elapsed_s: t.elapsed().as_secs_f64(),
                fingerprint: served.fingerprint,
            };
            eprintln!(
                "pool={:>2} batch={:>4}  {:>9.1} queries/s  fingerprint={:#018x}",
                cell.pool,
                cell.batch,
                cell.batch as f64 / cell.elapsed_s,
                cell.fingerprint
            );
            cells.push(cell);
        }
    }
    // --- Amortization curve: N one-shot pipelines vs 1 build + N serves ---
    // Min-cut is excluded from this mix: its per-request tree packing
    // costs more than construction itself, so including it would
    // measure the query, not the construction the index repays. (It
    // stays in the throughput grid and the determinism gate above.)
    let amortized_queries = |count: usize, n: usize| -> Vec<Query> {
        (0..count)
            .map(|i| match i % 3 {
                0 => Query::sssp(((i * 13) % n) as NodeId),
                1 => Query::Aggregate { op: AggOp::Sum },
                _ => Query::Mst,
            })
            .collect()
    };
    let amortize_pool = ServePool::new(Arc::clone(&index), *pool_sweep.last().unwrap());
    let mut amortization: Vec<Amortization> = Vec::new();
    for &n_queries in &[1usize, 4, 16] {
        let queries = amortized_queries(n_queries, wg.graph().n());
        // One-shot: every request pays the full distributed
        // construction before it can answer anything.
        let session = amortize_pool.session();
        let t = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            let (one_shot_index, _) =
                build_index_distributed(wg.graph(), wg.weights(), &partition, &cfg)
                    .expect("one-shot construction");
            let one_pool = ServePool::new(Arc::new(one_shot_index), 1);
            one_pool.serve(std::slice::from_ref(q), per_query_seed(batch_seed, i));
        }
        let one_shot_s = t.elapsed().as_secs_f64();
        // Indexed: construction repaid once, then served answers only.
        let t = Instant::now();
        let (rebuilt, _) = build_index_distributed(wg.graph(), wg.weights(), &partition, &cfg)
            .expect("amortized construction");
        drop(rebuilt); // charged, then the prebuilt shared index serves
        for (i, q) in queries.iter().enumerate() {
            session.answer(q, per_query_seed(batch_seed, i));
        }
        let indexed_s = t.elapsed().as_secs_f64();
        let a = Amortization {
            n_queries,
            one_shot_s,
            indexed_s,
        };
        eprintln!(
            "amortization N={:>3}: one-shot {:.3}s vs indexed {:.3}s  ({:.1}x)",
            a.n_queries,
            a.one_shot_s,
            a.indexed_s,
            a.speedup()
        );
        amortization.push(a);
    }

    // Serve determinism gate: every (pool > 1, batch) fingerprint must
    // equal the 1-worker fingerprint for the same batch.
    let rows: Vec<String> = cells.iter().map(Cell::json).collect();
    let diverged = SERVE.divergences(&rows);
    let json = Doc::new("serve_throughput", args.mode())
        .field(
            "graph",
            format_args!(
                "{{\"n\": {}, \"m\": {}, \"parts\": {}}}",
                wg.graph().n(),
                wg.graph().m(),
                partition.num_parts()
            ),
        )
        .field("build_s", format_args!("{build_s:.6}"))
        .field("index_bytes", bytes.len())
        .field("pool_sweep", format_args!("{pool_sweep:?}"))
        .str("determinism", gate::determinism(&diverged))
        .rows("throughput", rows)
        .rows("amortization", amortization.iter().map(Amortization::json))
        .end();
    SERVE.finish(&args, committed.as_deref(), &json, &diverged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_bench::ArgsError;

    fn parse(args: &[&str]) -> Result<gate::GateArgs, ArgsError> {
        SERVE.parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_ci_command_line() {
        let a = parse(&[
            "--quick",
            "--pools",
            "1,4",
            "--check",
            "BENCH_serve.json",
            "--out",
            "BENCH_serve.quick.json",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.sweep, vec![1, 4]);
        assert_eq!(a.check.as_deref(), Some("BENCH_serve.json"));
        assert_eq!(a.out.as_deref(), Some("BENCH_serve.quick.json"));
        assert_eq!(parse(&[]).unwrap().sweep, vec![1, 4]);
        assert_eq!(parse(&["--pools", "8,2"]).unwrap().sweep, vec![1, 8, 2]);
    }

    #[test]
    fn rejects_bad_flags_and_answers_help() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        assert_eq!(parse(&["--quick", "-h"]), Err(ArgsError::Help));
        for bad in [
            &["--pools"][..],
            &["--pools", "--quick"],
            &["--pools", "0"],
            &["--out"],
            &["--check"],
            &["--quik"],
            &["--shards", "4"],
        ] {
            assert!(
                matches!(parse(bad), Err(ArgsError::Bad(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn check_reads_back_what_the_bench_writes() {
        let cell = |pool, batch, fingerprint| Cell {
            pool,
            batch,
            elapsed_s: 0.5,
            fingerprint,
        };
        let doc = |cells: &[Cell]| {
            Doc::new("serve_throughput", "quick")
                .rows("throughput", cells.iter().map(Cell::json))
                .end()
        };
        let cells = [cell(1, 4, 0xAB), cell(1, 16, 0xCD), cell(4, 4, 0xAB)];
        let committed = doc(&cells);
        assert!(SERVE.check_fingerprints(&committed, &committed).is_empty());
        let rows = |cells: &[Cell]| cells.iter().map(Cell::json).collect::<Vec<_>>();
        assert!(SERVE.divergences(&rows(&cells)).is_empty());
        let moved = [cell(1, 4, 0xAC), cell(1, 16, 0xCD)];
        assert_eq!(SERVE.check_fingerprints(&committed, &doc(&moved)).len(), 1);
        let pool_moved = [cell(1, 4, 0xAB), cell(4, 4, 0xAC)];
        assert_eq!(
            SERVE.divergences(&rows(&pool_moved)),
            vec!["batch 4 @ pool 4"]
        );
        let missing = [cell(1, 4, 0xAB)];
        assert_eq!(
            SERVE.check_fingerprints(&committed, &doc(&missing)).len(),
            1
        );
        let extra = [cell(1, 4, 0xAB), cell(1, 16, 0xCD), cell(1, 64, 0xEF)];
        assert_eq!(SERVE.check_fingerprints(&committed, &doc(&extra)).len(), 1);
    }
}
