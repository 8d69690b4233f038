//! Cross-backend shortcut **quality bench**: every registered
//! [`lcs_shortcut::ShortcutBuilder`] backend × every graph family in the zoo, emitted
//! as `BENCH_quality.json` so congestion/dilation/rounds/messages are
//! tracked per-PR next to the paper's `k(D)` reference line.
//!
//! Usage: `quality_bench [--quick] [--out PATH] [--check PATH]
//! [--family NAME] [--backend NAME]`; an unknown flag or a flag without
//! its value exits 2, `--help` exits 0.
//!
//! `--family` / `--backend` restrict the sweep to cells whose family /
//! backend name contains the given substring (case-sensitive) — handy
//! when iterating on one backend without paying for the full grid. The
//! default remains the full sweep. Filtered runs refuse `--check` (a
//! partial grid cannot be compared against the committed full
//! fingerprint) and only write a file when `--out` is explicit, so a
//! filtered run can never clobber the committed `BENCH_quality.json`.
//!
//! Every cell is deterministic: the build RNG is seeded from the cell's
//! `(family, backend)` names, each cell is **built twice in-run** and
//! must match bit for bit, and the emitted fingerprint folds only
//! integer results (never timings). `--check PATH` re-runs the bench
//! and compares its fingerprint against a previously committed
//! `BENCH_quality.json`, exiting nonzero on divergence — CI runs
//! `--quick --check BENCH_quality.json` as the quality regression gate
//! (the quality_bench analogue of the `sim_throughput --shards 1,4`
//! determinism gate).
//!
//! Every cell passes the independent verifier against the backend's
//! declared bound; in particular the Kogan–Parter cells are checked
//! against the paper's `O(D·k_D·log n)` / `O(k_D·log n)` targets with
//! `k_D = n^((D−2)/(2D−2))` — the `reference` block records those
//! values per family.

use lcs_bench::quality::{families, fingerprint, registry, run_cell, Cell, Family};
use lcs_bench::{flag_value, ArgsError};
use lcs_core::{k_d, KpParams};

const SEED: u64 = 0xC0DE;

fn reference_json(f: &Family) -> String {
    let params = KpParams::new(f.graph.n(), f.d.max(3), 1.0).expect("bench graphs have n >= 2");
    format!(
        concat!(
            "{{\"family\":\"{}\",\"n\":{},\"m\":{},\"d\":{},",
            "\"k_d\":{:.3},\"kp_congestion_bound\":{},\"kp_dilation_bound\":{}}}"
        ),
        f.name,
        f.graph.n(),
        f.graph.m(),
        f.d,
        k_d(f.graph.n(), f.d.max(3)),
        params.congestion_bound(),
        params.dilation_bound(),
    )
}

fn cell_json(c: &Cell) -> String {
    let declared = c.declared.map_or_else(
        || "null,\"declared_dilation\":null".to_string(),
        |(con, dil)| format!("{con},\"declared_dilation\":{dil}"),
    );
    format!(
        concat!(
            "{{\"family\":\"{}\",\"backend\":\"{}\",\"params\":\"{}\",",
            "\"n\":{},\"m\":{},\"num_parts\":{},\"shortcut_edges\":{},",
            "\"congestion\":{},\"dilation\":{},\"declared_congestion\":{},",
            "\"rounds\":{},\"messages\":{}}}"
        ),
        c.family,
        c.backend,
        c.params,
        c.n,
        c.m,
        c.num_parts,
        c.shortcut_edges,
        c.congestion,
        c.dilation,
        declared,
        c.rounds,
        c.messages,
    )
}

/// Extracts `"key": "value"` from the hand-rolled JSON this bench
/// emits (no JSON dependency in the workspace — same approach as the
/// sim_throughput gate).
fn extract_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let start = json.find(&needle)? + needle.len();
    let end = json[start..].find('"')? + start;
    Some(&json[start..end])
}

const USAGE: &str = "usage: quality_bench [--quick] [--out PATH] [--check PATH] \
                     [--family NAME] [--backend NAME] [--help]";

/// The parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    quick: bool,
    /// Explicit output path.
    out: Option<String>,
    /// Committed `BENCH_quality.json` to compare the fingerprint against.
    check: Option<String>,
    /// Family-name substring filter.
    family: Option<String>,
    /// Backend-name substring filter.
    backend: Option<String>,
}

/// Parses the command line (program name excluded).
fn parse_args(args: &[String]) -> Result<Args, ArgsError> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => a.quick = true,
            "--out" => a.out = Some(flag_value(&mut it, "--out")?.to_string()),
            "--check" => a.check = Some(flag_value(&mut it, "--check")?.to_string()),
            "--family" => a.family = Some(flag_value(&mut it, "--family")?.to_string()),
            "--backend" => a.backend = Some(flag_value(&mut it, "--backend")?.to_string()),
            "--help" | "-h" => return Err(ArgsError::Help),
            other => {
                return Err(ArgsError::Bad(format!(
                    "quality_bench: unknown argument {other:?}"
                )))
            }
        }
    }
    if (a.family.is_some() || a.backend.is_some()) && a.check.is_some() {
        return Err(ArgsError::Bad(
            "quality_bench: --family/--backend cannot be combined with --check \
             (a partial grid cannot be compared against the committed full fingerprint)"
                .into(),
        ));
    }
    Ok(a)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        quick,
        out: explicit_out,
        check: check_path,
        family: family_filter,
        backend: backend_filter,
    } = parse_args(&raw).unwrap_or_else(|e| e.exit(USAGE));
    let out_path = explicit_out
        .clone()
        .unwrap_or_else(|| "BENCH_quality.json".to_string());
    let filtered = family_filter.is_some() || backend_filter.is_some();

    let fams = families(quick, SEED);
    let mut cells: Vec<Cell> = Vec::new();
    for fam in &fams {
        if family_filter
            .as_deref()
            .is_some_and(|f| !fam.name.contains(f))
        {
            continue;
        }
        for backend in registry(fam.d) {
            if backend_filter
                .as_deref()
                .is_some_and(|f| !backend.name().contains(f))
            {
                continue;
            }
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

    let fp = fingerprint(&cells);
    let mode = if quick { "quick" } else { "full" };
    let refs = fams
        .iter()
        .map(reference_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let body = cells
        .iter()
        .map(cell_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"quality\",\n  \"mode\": \"{}\",\n",
            "  \"fingerprint\": \"{:#018x}\",\n",
            "  \"reference\": [\n    {}\n  ],\n",
            "  \"cells\": [\n    {}\n  ]\n}}\n"
        ),
        mode, fp, refs, body
    );

    if let Some(path) = check_path {
        // Gate mode: compare against the committed results instead of
        // overwriting them.
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("quality_bench --check: cannot read {path}: {e}"));
        let want_mode = extract_str(&committed, "mode").unwrap_or("?");
        let want_fp = extract_str(&committed, "fingerprint").unwrap_or("?");
        if want_mode != mode {
            eprintln!(
                "quality_bench: committed {path} is a \"{want_mode}\" run; \
                 this is a \"{mode}\" run — modes must match to compare"
            );
            std::process::exit(2);
        }
        let got_fp = format!("{fp:#018x}");
        if want_fp != got_fp {
            eprintln!(
                "QUALITY REGRESSION: fingerprint {got_fp} does not match \
                 committed {want_fp} in {path}"
            );
            eprintln!("(regenerate with `quality_bench --quick --out {path}` if intentional)");
            std::process::exit(1);
        }
        eprintln!("quality fingerprint check: ok ({got_fp})");
    } else if !filtered || explicit_out.is_some() {
        std::fs::write(&out_path, &json).expect("write BENCH_quality.json");
        eprintln!("wrote {out_path}");
    } else {
        eprintln!("filtered run: results to stdout only (pass --out PATH to write a file)");
    }
    println!("{json}");
    if filtered && cells.is_empty() {
        eprintln!("quality_bench: the --family/--backend filters matched no cells");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ArgsError> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_ci_command_lines() {
        let a = parse(&["--quick", "--check", "BENCH_quality.json"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.check.as_deref(), Some("BENCH_quality.json"));
        assert_eq!(a.out, None);
        let a = parse(&["--family", "grid", "--backend", "kp", "--out", "x.json"]).unwrap();
        assert_eq!(
            (a.family.as_deref(), a.backend.as_deref(), a.out.as_deref()),
            (Some("grid"), Some("kp"), Some("x.json"))
        );
    }

    #[test]
    fn rejects_bad_flags_and_answers_help() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        assert_eq!(parse(&["--quick", "-h"]), Err(ArgsError::Help));
        for bad in [
            &["--out"][..],
            &["--family", "--quick"],
            &["--check"],
            &["--backend"],
            &["--quik"],
            &["--family", "grid", "--check", "BENCH_quality.json"],
            &["--check", "BENCH_quality.json", "--backend", "kp"],
        ] {
            assert!(
                matches!(parse(bad), Err(ArgsError::Bad(_))),
                "{bad:?} must be rejected"
            );
        }
    }
}
