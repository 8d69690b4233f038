//! Cross-backend shortcut **quality bench**: every registered
//! [`lcs_shortcut::ShortcutBuilder`] backend × every graph family in the zoo, emitted
//! as `BENCH_quality.json` so congestion/dilation/rounds/messages are
//! tracked per-PR next to the paper's `k(D)` reference line.
//!
//! Usage: `quality_bench [--quick] [--out PATH] [--check PATH] [--help]`;
//! the flags, the output policy and the exit codes are the shared
//! gate's ([`lcs_bench::gate`]).
//!
//! Every cell is deterministic: the build RNG is seeded from the cell's
//! `(family, backend)` names, each cell is **built twice in-run** and
//! must match bit for bit, and the emitted fingerprint folds only
//! integer results (never timings). `--check PATH` compares that
//! fingerprint with a previously committed `BENCH_quality.json` and
//! exits 1 on divergence — CI runs
//! `--quick --check BENCH_quality.json --out BENCH_quality.artifact.json`
//! as the quality regression gate.
//!
//! Every cell passes the independent verifier against the backend's
//! declared bound; in particular the Kogan–Parter cells are checked
//! against the paper's `O(D·k_D·log n)` / `O(k_D·log n)` targets with
//! `k_D = n^((D−2)/(2D−2))` — the `reference` block records those
//! values per family.

use lcs_bench::gate::{Doc, Gate, Row};
use lcs_bench::quality::{families, fingerprint, registry, run_cell, Cell, Family};
use lcs_core::{k_d, KpParams};

const SEED: u64 = 0xC0DE;

const QUALITY: Gate = Gate {
    bench: "quality_bench",
    default_out: "BENCH_quality.json",
    sweep: None,
    id_key: None,
    extra_usage: "",
};

fn reference_json(f: &Family) -> String {
    let params = KpParams::new(f.graph.n(), f.d.max(3), 1.0).expect("bench graphs have n >= 2");
    Row::default()
        .str("family", f.name)
        .val("n", f.graph.n())
        .val("m", f.graph.m())
        .val("d", f.d)
        .fixed("k_d", k_d(f.graph.n(), f.d.max(3)), 3)
        .val("kp_congestion_bound", params.congestion_bound())
        .val("kp_dilation_bound", params.dilation_bound())
        .end()
}

fn cell_json(c: &Cell) -> String {
    let (con, dil) = c
        .declared
        .map_or(("null".into(), "null".into()), |(con, dil)| {
            (con.to_string(), dil.to_string())
        });
    Row::default()
        .str("family", &c.family)
        .str("backend", &c.backend)
        .str("params", &c.params)
        .val("n", c.n)
        .val("m", c.m)
        .val("num_parts", c.num_parts)
        .val("shortcut_edges", c.shortcut_edges)
        .val("congestion", c.congestion)
        .val("dilation", c.dilation)
        .val("declared_congestion", con)
        .val("declared_dilation", dil)
        .val("rounds", c.rounds)
        .val("messages", c.messages)
        .end()
}

fn main() {
    let args = QUALITY.from_env();
    let committed = QUALITY.committed(&args);

    let fams = families(args.quick, SEED);
    let mut cells: Vec<Cell> = Vec::new();
    for fam in &fams {
        for backend in registry(fam.d) {
            if !backend.applicable(&fam.graph, &fam.partition) {
                eprintln!(
                    "{:>12} / {:<18} skipped (inapplicable at D={})",
                    fam.name,
                    backend.name(),
                    fam.d
                );
                continue;
            }
            let cell = run_cell(fam, backend.as_ref());
            eprintln!(
                "{:>12} / {:<18} congestion={:<4} dilation={:<4} rounds={:<5} \
                 messages={:<7} edges={}",
                cell.family,
                cell.backend,
                cell.congestion,
                cell.dilation,
                cell.rounds,
                cell.messages,
                cell.shortcut_edges,
            );
            cells.push(cell);
        }
    }

    let json = Doc::new("quality", args.mode())
        .str("fingerprint", format_args!("{:#018x}", fingerprint(&cells)))
        .rows("reference", fams.iter().map(reference_json))
        .rows("cells", cells.iter().map(cell_json))
        .end();
    QUALITY.finish(&args, committed.as_deref(), &json, &[]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_bench::gate::GateArgs;
    use lcs_bench::ArgsError;

    fn parse(args: &[&str]) -> Result<GateArgs, ArgsError> {
        QUALITY.parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_ci_command_lines() {
        let a = parse(&[
            "--quick",
            "--check",
            "BENCH_quality.json",
            "--out",
            "BENCH_quality.artifact.json",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.check.as_deref(), Some("BENCH_quality.json"));
        assert_eq!(QUALITY.out_path(&a), Some("BENCH_quality.artifact.json"));
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(QUALITY.out_path(&a), Some("BENCH_quality.json"));
    }

    #[test]
    fn rejects_bad_flags_and_answers_help() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        assert_eq!(parse(&["--quick", "-h"]), Err(ArgsError::Help));
        for bad in [
            &["--out"][..],
            &["--check"],
            &["--quik"],
            &["--family", "grid"],
            &["--backend", "kp"],
            &["--shards", "4"],
        ] {
            assert!(
                matches!(parse(bad), Err(ArgsError::Bad(_))),
                "{bad:?} must be rejected"
            );
        }
    }
}
