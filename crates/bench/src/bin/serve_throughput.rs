//! Service-layer throughput benchmark: queries/sec of the
//! [`ServePool`] front-end as a function of pool
//! size and batch size, plus the **build-vs-query amortization curve**
//! — the wall-clock case for preprocess-once, query-many — emitted as
//! `BENCH_serve.json`.
//!
//! Usage: `serve_throughput [--quick] [--pools K[,K2,...]] [--out PATH]
//! [--check PATH]`
//!
//! `--quick` shrinks the workload to CI scale. `--pools` takes a
//! comma-separated sweep of pool sizes (pool size 1 is always measured
//! first as the baseline). For every `(pool, batch)` cell the run
//! records the batch fingerprint, and **exits nonzero if any pool
//! size's results diverge from the 1-worker run's** — CI runs `--quick`
//! and relies on that exit code as the serve determinism gate.
//!
//! `--check PATH` also compares every `(pool, batch)` fingerprint with
//! a committed `BENCH_serve.json` and exits 1 on any difference (2 when
//! the committed file is a run of the other mode). The fingerprints
//! fold every answer's integer payload — SSSP distances, iterations and
//! rounds included — so this pins the served outputs, not just their
//! pool invariance. A checking run writes a file only with `--out`;
//! otherwise the results go to `--out` or `BENCH_serve.json`.
//!
//! The amortization section times, for N ∈ {1, 4, 16, ...}:
//!
//! * `one_shot_s` — N × (full distributed construction + one answer),
//!   the cost of treating every request as a fresh pipeline run;
//! * `indexed_s`  — 1 × construction + N index-served answers.
//!
//! Serving N ≥ 16 mixed queries from one index must beat N one-shot
//! runs by ≥ 5× (the construction is repaid once instead of N times).

use lcs_bench::{flag_value, ArgsError};
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
        format!(
            concat!(
                "{{\"pool\":{},\"batch\":{},\"elapsed_s\":{:.6},",
                "\"queries_per_s\":{:.1},\"fingerprint\":\"{:#018x}\"}}"
            ),
            self.pool,
            self.batch,
            self.elapsed_s,
            self.batch as f64 / self.elapsed_s,
            self.fingerprint,
        )
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
        format!(
            concat!(
                "{{\"n_queries\":{},\"one_shot_s\":{:.6},",
                "\"indexed_s\":{:.6},\"speedup\":{:.2}}}"
            ),
            self.n_queries,
            self.one_shot_s,
            self.indexed_s,
            self.speedup(),
        )
    }
}

const USAGE: &str = "usage: serve_throughput [--quick] [--pools K[,K2,...]] [--out PATH] \
                     [--check PATH] [--help]";

/// The parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    quick: bool,
    /// Pool sizes to sweep, 1 first.
    pools: Vec<usize>,
    /// Explicit output path.
    out: Option<String>,
    /// Committed `BENCH_serve.json` to compare fingerprints against.
    check: Option<String>,
}

/// Parses the command line (program name excluded). `--pools 1,4` is a
/// comma-separated sweep and `--pools 4` is shorthand for `1,4`: pool
/// size 1 is always included as the baseline and measured first.
/// Without `--pools` the sweep is `1,4`.
fn parse_args(args: &[String]) -> Result<Args, ArgsError> {
    let mut a = Args {
        quick: false,
        pools: vec![1],
        out: None,
        check: None,
    };
    let mut pools_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => a.quick = true,
            "--pools" => {
                pools_given = true;
                for piece in flag_value(&mut it, "--pools")?.split(',') {
                    match piece.trim().parse::<usize>() {
                        Ok(k) if k >= 1 => {
                            if !a.pools.contains(&k) {
                                a.pools.push(k);
                            }
                        }
                        _ => {
                            return Err(ArgsError::Bad(format!(
                                "serve_throughput: bad --pools value {piece:?}"
                            )))
                        }
                    }
                }
            }
            "--out" => a.out = Some(flag_value(&mut it, "--out")?.to_string()),
            "--check" => a.check = Some(flag_value(&mut it, "--check")?.to_string()),
            "--help" | "-h" => return Err(ArgsError::Help),
            other => {
                return Err(ArgsError::Bad(format!(
                    "serve_throughput: unknown argument {other:?}"
                )))
            }
        }
    }
    if !pools_given {
        a.pools.push(4);
    }
    Ok(a)
}

/// The value of `"key":` in one line of a `BENCH_serve.json`, quotes
/// stripped.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Compares this run's `(pool, batch)` fingerprints with a committed
/// `BENCH_serve.json`; returns one line per difference.
fn check_fingerprints(committed: &str, cells: &[Cell]) -> Vec<String> {
    let want: Vec<(&str, &str, &str)> = committed
        .lines()
        .filter_map(|line| {
            Some((
                json_field(line, "pool")?,
                json_field(line, "batch")?,
                json_field(line, "fingerprint")?,
            ))
        })
        .collect();
    let mut diffs = Vec::new();
    for c in cells {
        let (pool, batch) = (c.pool.to_string(), c.batch.to_string());
        let got = format!("{:#018x}", c.fingerprint);
        match want.iter().find(|(p, b, _)| *p == pool && *b == batch) {
            None => diffs.push(format!(
                "pool {pool} batch {batch}: not in the committed file"
            )),
            Some((_, _, w)) if *w != got => diffs.push(format!(
                "pool {pool} batch {batch}: fingerprint {got} != committed {w}"
            )),
            Some(_) => {}
        }
    }
    for (pool, batch, _) in &want {
        if !cells
            .iter()
            .any(|c| c.pool.to_string() == *pool && c.batch.to_string() == *batch)
        {
            diffs.push(format!("pool {pool} batch {batch}: committed but not run"));
        }
    }
    diffs
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| e.exit(USAGE));
    let quick = args.quick;
    let pool_sweep = args.pools.clone();
    // Read the committed file before anything can overwrite it.
    let committed = args.check.as_ref().map(|path| {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("serve_throughput --check: cannot read {path}: {e}"));
        let mode = if quick { "quick" } else { "full" };
        let want_mode = json_field(&json, "mode").unwrap_or("?");
        if want_mode != mode {
            ArgsError::Bad(format!(
                "serve_throughput: committed {path} is a \"{want_mode}\" run; \
                 this is a \"{mode}\" run — modes must match to compare"
            ))
            .exit(USAGE);
        }
        json
    });

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
    let mut diverged = false;
    for &pool_size in &pool_sweep {
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
    // Serve determinism gate: every (pool > 1, batch) fingerprint must
    // equal the 1-worker fingerprint for the same batch.
    for cell in cells.iter().filter(|c| c.pool != 1) {
        let base = cells
            .iter()
            .find(|b| b.pool == 1 && b.batch == cell.batch)
            .expect("1-worker baseline measured first");
        if cell.fingerprint != base.fingerprint {
            diverged = true;
            eprintln!(
                "DETERMINISM VIOLATION: batch {} fingerprint {:#018x} at pool {} \
                 != {:#018x} at pool 1",
                cell.batch, cell.fingerprint, cell.pool, base.fingerprint
            );
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

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"serve_throughput\",\n  \"mode\": \"{}\",\n",
            "  \"graph\": {{\"n\": {}, \"m\": {}, \"parts\": {}}},\n",
            "  \"build_s\": {:.6},\n  \"index_bytes\": {},\n",
            "  \"pool_sweep\": {:?},\n  \"determinism\": \"{}\",\n",
            "  \"throughput\": [\n    {}\n  ],\n",
            "  \"amortization\": [\n    {}\n  ]\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        wg.graph().n(),
        wg.graph().m(),
        partition.num_parts(),
        build_s,
        bytes.len(),
        pool_sweep,
        if diverged { "DIVERGED" } else { "ok" },
        cells
            .iter()
            .map(Cell::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        amortization
            .iter()
            .map(Amortization::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    let out_path = match (&args.out, &args.check) {
        (Some(path), _) => Some(path.as_str()),
        (None, None) => Some("BENCH_serve.json"),
        (None, Some(_)) => None,
    };
    if let Some(path) = out_path {
        std::fs::write(path, &json).expect("write BENCH_serve.json");
        eprintln!("wrote {path}");
    }
    println!("{json}");
    let mut failed = false;
    if diverged {
        eprintln!("serve_throughput: served results diverged across pool sizes");
        failed = true;
    } else {
        eprintln!("serve determinism check: ok");
    }
    if let (Some(committed), Some(path)) = (&committed, &args.check) {
        let diffs = check_fingerprints(committed, &cells);
        for d in &diffs {
            eprintln!("FINGERPRINT MISMATCH vs {path}: {d}");
        }
        if diffs.is_empty() {
            eprintln!("fingerprint check against {path}: ok");
        } else {
            eprintln!(
                "(regenerate with `serve_throughput --quick --pools 1,4 --out {path}` if intentional)"
            );
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
        assert_eq!(a.pools, vec![1, 4]);
        assert_eq!(a.check.as_deref(), Some("BENCH_serve.json"));
        assert_eq!(a.out.as_deref(), Some("BENCH_serve.quick.json"));
        assert_eq!(parse(&[]).unwrap().pools, vec![1, 4]);
        assert_eq!(parse(&["--pools", "8,2"]).unwrap().pools, vec![1, 8, 2]);
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
        let cells = vec![cell(1, 4, 0xAB), cell(4, 4, 0xAB)];
        let json = format!(
            "{{\n  \"mode\": \"quick\",\n    {},\n    {}\n}}",
            cells[0].json(),
            cells[1].json()
        );
        assert!(check_fingerprints(&json, &cells).is_empty());
        let moved = vec![cell(1, 4, 0xAB), cell(4, 4, 0xAC)];
        assert_eq!(check_fingerprints(&json, &moved).len(), 1);
        let missing = vec![cell(1, 4, 0xAB)];
        assert_eq!(check_fingerprints(&json, &missing).len(), 1);
        let extra = vec![cell(1, 4, 0xAB), cell(4, 4, 0xAB), cell(1, 16, 0xCD)];
        assert_eq!(check_fingerprints(&json, &extra).len(), 1);
    }
}
