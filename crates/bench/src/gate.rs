//! The one gate behind the four `BENCH_*.json` binaries
//! (`sim_throughput`, `serve_throughput`, `quality_bench` and
//! `adversary_bench`): their shared flags, the JSON they write, the
//! reader for committed files and the checks that make them CI gates.
//!
//! Every gate binary accepts `--quick`, `--out PATH`, `--check PATH` and
//! `--help`; a sweeping one also takes `--shards` or `--pools` with a
//! comma-separated list `K[,K2,...]`. Count 1 is always in the sweep and
//! always runs first: it is the baseline every other count must match.
//!
//! * **Output.** Without `--check` the document goes to `--out` or the
//!   binary's default file. A checking run writes only when given
//!   `--out`, so it never overwrites the file it compares against. The
//!   document is printed on stdout either way.
//! * **Exit 2:** the command line is refused (unknown flag, missing or
//!   malformed value), or the `--check` file is unreadable or a run of
//!   the other mode (quick vs full).
//! * **Exit 1:** a row differs from the same workload at count 1, or a
//!   baseline row's fingerprints differ from the committed file's.

use crate::{flag_value, ArgsError};
use lcs_congest::RunStats;
use std::fmt::{Display, Write};

/// The sweep a gate binary runs over: shard counts or pool sizes.
#[derive(Debug)]
pub struct Sweep {
    /// The flag that sets it (`--shards`, `--pools`).
    pub flag: &'static str,
    /// The row key its count is written under (`shards`, `pool`).
    pub key: &'static str,
    /// The sweep when the flag is not given; starts with 1.
    pub default: &'static [usize],
}

/// One gate binary's fixed shape.
#[derive(Debug)]
pub struct Gate {
    /// Binary name, for messages and the usage line.
    pub bench: &'static str,
    /// File written when neither `--out` nor `--check` is given.
    pub default_out: &'static str,
    /// The sweep, if the binary has one.
    pub sweep: Option<Sweep>,
    /// Row key naming a workload (`name`, `batch`); `None` when the
    /// document carries a single fingerprint in its header.
    pub id_key: Option<&'static str>,
    /// The binary's own flags, for the usage line (`"[--reps N] "`).
    pub extra_usage: &'static str,
}

/// The shared part of a gate binary's command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateArgs {
    /// CI-scale run.
    pub quick: bool,
    /// Counts to sweep, 1 first (`[1]` for a binary without a sweep).
    pub sweep: Vec<usize>,
    /// Explicit output path.
    pub out: Option<String>,
    /// Committed file to compare fingerprints against.
    pub check: Option<String>,
}

impl GateArgs {
    /// `"quick"` or `"full"`, as written in the document header.
    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// A positive count given to `flag`.
///
/// # Errors
///
/// [`ArgsError::Bad`] unless `raw` is an integer ≥ 1.
pub fn positive(raw: &str, flag: &str) -> Result<usize, ArgsError> {
    match raw.trim().parse() {
        Ok(k) if k >= 1 => Ok(k),
        _ => Err(ArgsError::Bad(format!(
            "{flag} needs a positive count, got {raw:?}"
        ))),
    }
}

/// The process arguments, program name excluded.
pub fn env_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

impl Gate {
    /// The accepted flags, printed on `--help` and on a refused line.
    pub fn usage(&self) -> String {
        let sweep = self
            .sweep
            .as_ref()
            .map_or(String::new(), |s| format!("[{} K[,K2,...]] ", s.flag));
        format!(
            "usage: {} [--quick] {sweep}{}[--out PATH] [--check PATH] [--help]",
            self.bench, self.extra_usage
        )
    }

    /// Parses the shared flags (program name excluded).
    ///
    /// # Errors
    ///
    /// [`ArgsError::Help`] for `--help` / `-h`; [`ArgsError::Bad`] for
    /// an unknown flag or a missing or malformed value.
    pub fn parse(&self, args: &[String]) -> Result<GateArgs, ArgsError> {
        self.parse_with(args, |_, _| Ok(false))
    }

    /// [`Gate::parse`], offering every flag it does not know to `extra`
    /// first, which returns whether it took the flag (and its value).
    ///
    /// # Errors
    ///
    /// As [`Gate::parse`], plus whatever `extra` returns.
    pub fn parse_with(
        &self,
        args: &[String],
        mut extra: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<bool, ArgsError>,
    ) -> Result<GateArgs, ArgsError> {
        let mut a = GateArgs {
            quick: false,
            sweep: vec![1],
            out: None,
            check: None,
        };
        let mut swept = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => a.quick = true,
                "--out" => a.out = Some(flag_value(&mut it, "--out")?.to_string()),
                "--check" => a.check = Some(flag_value(&mut it, "--check")?.to_string()),
                "--help" | "-h" => return Err(ArgsError::Help),
                flag if self.sweep.as_ref().is_some_and(|s| s.flag == flag) => {
                    swept = true;
                    for piece in flag_value(&mut it, flag)?.split(',') {
                        let k = positive(piece, flag)?;
                        if !a.sweep.contains(&k) {
                            a.sweep.push(k);
                        }
                    }
                }
                other => {
                    if !extra(other, &mut it)? {
                        return Err(ArgsError::Bad(format!(
                            "{}: unknown argument {other:?}",
                            self.bench
                        )));
                    }
                }
            }
        }
        if let (Some(s), false) = (&self.sweep, swept) {
            a.sweep = s.default.to_vec();
        }
        Ok(a)
    }

    /// [`Gate::parse`] on the process arguments; prints the usage and
    /// exits (0 on `--help`, 2 on a refused line) if they do not parse.
    pub fn from_env(&self) -> GateArgs {
        self.parse(&env_args())
            .unwrap_or_else(|e| e.exit(&self.usage()))
    }

    /// Reads the `--check` file, before the run can overwrite it. Exits
    /// 2 if it cannot be read or records a run of the other mode.
    pub fn committed(&self, args: &GateArgs) -> Option<String> {
        let path = args.check.as_ref()?;
        let refuse = |why: String| -> ! { ArgsError::Bad(why).exit(&self.usage()) };
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| refuse(format!("{}: cannot read {path}: {e}", self.bench)));
        let (mode, want) = (args.mode(), field(&json, "mode").unwrap_or("?"));
        if want != mode {
            refuse(format!(
                "{}: committed {path} is a \"{want}\" run; this is a \"{mode}\" run \
                 — modes must match to compare",
                self.bench
            ));
        }
        Some(json)
    }

    /// Every row (as written) that differs from the same workload's row
    /// at count 1 in anything but its [`TIMING`] fields, as
    /// `"id @ key count"`; a row without a baseline counts too.
    pub fn divergences(&self, rows: &[String]) -> Vec<String> {
        let Some(sweep) = &self.sweep else {
            return Vec::new();
        };
        let count = |row: &str| field(row, sweep.key).unwrap_or("1").to_string();
        let outcome = |row: &str| {
            let keys = TIMING.iter().chain([&sweep.key]);
            keys.fold(row.to_string(), |row, key| {
                match row.find(&format!("\"{key}\":")) {
                    Some(at) => {
                        let end = row[at..].find([',', '}']).map_or(row.len(), |e| at + e);
                        format!("{}{}", &row[..at], &row[end..])
                    }
                    None => row,
                }
            })
        };
        rows.iter()
            .filter(|r| count(r) != "1")
            .filter(|r| {
                !rows
                    .iter()
                    .any(|b| count(b) == "1" && outcome(b) == outcome(r))
            })
            .map(|r| {
                let id = self
                    .id_key
                    .and_then(|k| Some(format!("{k} {}", field(r, k)?)));
                format!("{} @ {} {}", id.unwrap_or_default(), sweep.key, count(r))
            })
            .collect()
    }

    /// Where this run writes its document, if anywhere.
    pub fn out_path<'a>(&self, args: &'a GateArgs) -> Option<&'a str> {
        match (&args.out, &args.check) {
            (Some(path), _) => Some(path),
            (None, None) => Some(self.default_out),
            (None, Some(_)) => None,
        }
    }

    /// The baseline rows of a document, as `(id, fingerprints)`: every
    /// line with a fingerprint whose sweep count, if it has one, is 1.
    fn pinned<'a>(&self, doc: &'a str) -> Vec<(String, Vec<&'a str>)> {
        doc.lines()
            .filter(|line| {
                self.sweep
                    .as_ref()
                    .and_then(|s| field(line, s.key))
                    .is_none_or(|k| k == "1")
            })
            .filter_map(|line| {
                let fps = fingerprints(line);
                let id = match self.id_key {
                    Some(key) => format!("{key} {}", field(line, key)?),
                    None => "document".to_string(),
                };
                (!fps.is_empty()).then_some((id, fps))
            })
            .collect()
    }

    /// Compares the baseline rows of this run's document with a
    /// committed one; returns one line per difference. Rows at other
    /// counts are held to their baseline by [`Gate::divergences`].
    pub fn check_fingerprints(&self, committed: &str, ours: &str) -> Vec<String> {
        let (want, got) = (self.pinned(committed), self.pinned(ours));
        let mut diffs = Vec::new();
        for (id, fps) in &got {
            match want.iter().find(|(w, _)| w == id) {
                None => diffs.push(format!("{id}: not in the committed file")),
                Some((_, w)) if w != fps => {
                    diffs.push(format!("{id}: fingerprints {fps:?} != committed {w:?}"));
                }
                Some(_) => {}
            }
        }
        for (id, _) in &want {
            if !got.iter().any(|(g, _)| g == id) {
                diffs.push(format!("{id}: committed but not run"));
            }
        }
        diffs
    }

    /// Ends a run: writes and prints `json`, reports `divergences` and
    /// the `--check` comparison, and exits 1 if either failed.
    pub fn finish(
        &self,
        args: &GateArgs,
        committed: Option<&str>,
        json: &str,
        divergences: &[String],
    ) {
        if let Some(path) = self.out_path(args) {
            std::fs::write(path, json)
                .unwrap_or_else(|e| panic!("{}: cannot write {path}: {e}", self.bench));
            eprintln!("wrote {path}");
        }
        println!("{json}");
        for d in divergences {
            eprintln!("DETERMINISM VIOLATION: {d} differs from its count-1 baseline");
        }
        let mut failed = !divergences.is_empty();
        if let (Some(committed), Some(path)) = (committed, &args.check) {
            let diffs = self.check_fingerprints(committed, json);
            for d in &diffs {
                eprintln!("FINGERPRINT MISMATCH vs {path}: {d}");
            }
            if diffs.is_empty() {
                eprintln!("{}: fingerprint check against {path}: ok", self.bench);
            } else {
                eprintln!("(if intentional, regenerate: `--out {path}` in place of `--check`)");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

/// The row fields that hold wall-clock measurements: they may differ
/// across a sweep, and between any two runs.
pub const TIMING: [&str; 9] = [
    "elapsed_s",
    "rounds_per_s",
    "messages_per_s",
    "speedup_vs_1shard",
    "queries_per_s",
    "build_s",
    "one_shot_s",
    "indexed_s",
    "speedup",
];

/// The document's `determinism` value: `"ok"`, or `"DIVERGED: …"`
/// naming every row from [`Gate::divergences`].
pub fn determinism(divergences: &[String]) -> String {
    if divergences.is_empty() {
        "ok".to_string()
    } else {
        format!("DIVERGED: {}", divergences.join(", "))
    }
}

/// The value of `"key":` in a line (or the first one in a document),
/// surrounding spaces and quotes stripped. Values holding `,` or `}`
/// are cut short; the gate reads only names, counts and fingerprints.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Every fingerprint a line records, in order: each value of a key
/// ending in `fingerprint`.
fn fingerprints(line: &str) -> Vec<&str> {
    line.split("fingerprint\":")
        .skip(1)
        .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
        .collect()
}

/// A gate document: a header of `"key": value` lines, then arrays of
/// one-line rows, in the order written.
#[derive(Debug)]
pub struct Doc(String);

impl Doc {
    /// Starts a document with its `bench` and `mode` lines.
    pub fn new(bench: &str, mode: &str) -> Doc {
        Doc(String::new()).str("bench", bench).str("mode", mode)
    }

    /// Adds a header line with a raw (unquoted) value.
    pub fn field(mut self, key: &str, value: impl Display) -> Doc {
        let sep = if self.0.is_empty() { '{' } else { ',' };
        write!(self.0, "{sep}\n  \"{key}\": {value}").unwrap();
        self
    }

    /// Adds a header line with a quoted value.
    pub fn str(self, key: &str, value: impl Display) -> Doc {
        self.field(key, format_args!("\"{value}\""))
    }

    /// Adds an array of rows, one per line.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = String>) -> Doc {
        let body = rows.into_iter().collect::<Vec<_>>().join(",\n    ");
        self.field(key, format_args!("[\n    {body}\n  ]"))
    }

    /// The finished document, newline-terminated.
    pub fn end(self) -> String {
        self.0 + "\n}\n"
    }
}

/// One compact JSON object, keys in the order written; start one with
/// `Row::default()`.
#[derive(Debug, Default)]
pub struct Row(String);

impl Row {
    /// Adds `"key":value` with a raw (unquoted) value.
    pub fn val(mut self, key: &str, value: impl Display) -> Row {
        let sep = if self.0.is_empty() { '{' } else { ',' };
        write!(self.0, "{sep}\"{key}\":{value}").unwrap();
        self
    }

    /// Adds a quoted value.
    pub fn str(self, key: &str, value: impl Display) -> Row {
        self.val(key, format_args!("\"{value}\""))
    }

    /// Adds a fingerprint, quoted as 16 hex digits.
    pub fn fp(self, key: &str, value: u64) -> Row {
        self.val(key, format_args!("\"{value:#018x}\""))
    }

    /// Adds a float with `digits` decimals.
    pub fn fixed(self, key: &str, value: f64, digits: usize) -> Row {
        self.val(key, format_args!("{value:.digits$}"))
    }

    /// Adds an array written by [`phases`]; no key at all when it is
    /// empty.
    pub fn phases(self, phases: &str) -> Row {
        if phases.is_empty() {
            self
        } else {
            self.val("phases", phases)
        }
    }

    /// The finished object.
    pub fn end(self) -> String {
        self.0 + "}"
    }
}

/// The `phases` array of a composed run's row — label, rounds,
/// messages and fingerprint of each phase — or `""` for a run of one
/// protocol.
pub fn phases(stats: &[RunStats]) -> String {
    if stats.is_empty() {
        return String::new();
    }
    let rows: Vec<String> = stats
        .iter()
        .map(|p| {
            Row::default()
                .str("label", &p.label)
                .val("rounds", p.rounds)
                .val("messages", p.messages)
                .fp("fingerprint", p.fingerprint())
                .end()
        })
        .collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEPT: Gate = Gate {
        bench: "swept",
        default_out: "BENCH_swept.json",
        sweep: Some(Sweep {
            flag: "--shards",
            key: "shards",
            default: &[1, 4],
        }),
        id_key: Some("name"),
        extra_usage: "",
    };

    const SINGLE: Gate = Gate {
        bench: "single",
        default_out: "BENCH_single.json",
        sweep: None,
        id_key: None,
        extra_usage: "",
    };

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse(gate: &Gate, args: &[&str]) -> Result<GateArgs, ArgsError> {
        gate.parse(&strings(args))
    }

    #[test]
    fn sweep_starts_at_one_and_defaults_per_gate() {
        assert_eq!(parse(&SWEPT, &[]).unwrap().sweep, vec![1, 4]);
        assert_eq!(parse(&SWEPT, &["--shards", "8"]).unwrap().sweep, vec![1, 8]);
        assert_eq!(
            parse(&SWEPT, &["--shards", "4,1,2", "--shards", "2,8"])
                .unwrap()
                .sweep,
            vec![1, 4, 2, 8]
        );
        assert_eq!(parse(&SINGLE, &["--quick"]).unwrap().sweep, vec![1]);
        assert_eq!(parse(&SINGLE, &["--shards", "4"]).map(|_| ()), {
            Err(ArgsError::Bad(
                "single: unknown argument \"--shards\"".into(),
            ))
        });
    }

    #[test]
    fn refuses_bad_lines_and_answers_help() {
        assert_eq!(parse(&SWEPT, &["--quick", "-h"]), Err(ArgsError::Help));
        for bad in [
            &["--shards"][..],
            &["--shards", "--quick"],
            &["--shards", "0"],
            &["--shards", "1,x"],
            &["--out"],
            &["--check", "--out", "x"],
            &["--quik"],
            &["quick"],
        ] {
            assert!(
                matches!(parse(&SWEPT, bad), Err(ArgsError::Bad(_))),
                "{bad:?} must be refused"
            );
        }
    }

    #[test]
    fn extra_flags_go_to_the_binary() {
        let mut reps = 1;
        let a = SWEPT
            .parse_with(&strings(&["--reps", "3", "--quick"]), |flag, it| {
                if flag != "--reps" {
                    return Ok(false);
                }
                reps = positive(flag_value(it, flag)?, flag)?;
                Ok(true)
            })
            .unwrap();
        assert!(a.quick);
        assert_eq!(reps, 3);
        assert_eq!(
            SWEPT.usage(),
            "usage: swept [--quick] [--shards K[,K2,...]] [--out PATH] [--check PATH] [--help]"
        );
    }

    #[test]
    fn out_policy_never_overwrites_the_checked_file() {
        let out = |args: &[&str]| {
            let a = parse(&SWEPT, args).unwrap();
            SWEPT.out_path(&a).map(str::to_string)
        };
        assert_eq!(out(&[]).as_deref(), Some("BENCH_swept.json"));
        assert_eq!(out(&["--out", "x.json"]).as_deref(), Some("x.json"));
        assert_eq!(out(&["--check", "BENCH_swept.json"]), None);
        assert_eq!(
            out(&["--check", "BENCH_swept.json", "--out", "y.json"]).as_deref(),
            Some("y.json")
        );
    }

    #[test]
    fn writer_emits_the_committed_layout() {
        let row = Row::default()
            .str("name", "a")
            .val("n", 3)
            .fixed("elapsed_s", 0.5, 6)
            .fp("stats_fingerprint", 0xAB)
            .phases("")
            .end();
        assert_eq!(
            row,
            "{\"name\":\"a\",\"n\":3,\"elapsed_s\":0.500000,\
             \"stats_fingerprint\":\"0x00000000000000ab\"}"
        );
        let g = lcs_graph::generators::path(3);
        let mut bfs = RunStats::new(&g);
        (bfs.label, bfs.rounds, bfs.messages) = ("bfs".into(), 2, 5);
        let fp = bfs.fingerprint();
        assert_eq!(
            Row::default().val("n", 1).phases(&phases(&[bfs.clone(), bfs])).end(),
            format!(
                "{{\"n\":1,\"phases\":[\
                 {{\"label\":\"bfs\",\"rounds\":2,\"messages\":5,\"fingerprint\":\"{fp:#018x}\"}},\
                 {{\"label\":\"bfs\",\"rounds\":2,\"messages\":5,\"fingerprint\":\"{fp:#018x}\"}}]}}"
            )
        );
        let doc = Doc::new("b", "quick")
            .field("sweep", format_args!("{:?}", [1, 4]))
            .str("determinism", determinism(&[]))
            .rows("rows", ["{}".to_string(), "{}".to_string()])
            .rows("none", [])
            .end();
        assert_eq!(
            doc,
            "{\n  \"bench\": \"b\",\n  \"mode\": \"quick\",\n  \"sweep\": [1, 4],\n  \
             \"determinism\": \"ok\",\n  \"rows\": [\n    {},\n    {}\n  ],\n  \
             \"none\": [\n    \n  ]\n}\n"
        );
    }

    #[test]
    fn reader_finds_fields_and_fingerprints() {
        let line = "{\"name\":\"x\",\"shards\":1,\"stats_fingerprint\":\"0x01\",\
                    \"phases\":[{\"label\":\"p\",\"fingerprint\":\"0x02\"}]}";
        assert_eq!(field(line, "name"), Some("x"));
        assert_eq!(field(line, "shards"), Some("1"));
        assert_eq!(field(line, "absent"), None);
        assert_eq!(fingerprints(line), vec!["0x01", "0x02"]);
        assert_eq!(field("  \"mode\": \"full\",", "mode"), Some("full"));
        assert_eq!(fingerprints("  \"fingerprint\": \"0x03\","), vec!["0x03"]);
    }

    fn swept_doc(rows: &[(&str, usize, u64)]) -> String {
        Doc::new("swept", "quick")
            .rows(
                "rows",
                rows.iter().map(|&(name, shards, fp)| {
                    Row::default()
                        .str("name", name)
                        .val("shards", shards)
                        .fp("stats_fingerprint", fp)
                        .end()
                }),
            )
            .end()
    }

    #[test]
    fn check_compares_baseline_rows_both_ways() {
        let committed = swept_doc(&[("a", 1, 1), ("b", 1, 2), ("a", 4, 1), ("b", 4, 2)]);
        assert!(SWEPT
            .check_fingerprints(&committed, &swept_doc(&[("a", 1, 1), ("b", 1, 2)]))
            .is_empty());
        assert_eq!(
            SWEPT.check_fingerprints(&committed, &swept_doc(&[("a", 1, 1), ("b", 1, 3)])),
            vec!["name b: fingerprints [\"0x0000000000000003\"] != committed [\"0x0000000000000002\"]"]
        );
        assert_eq!(
            SWEPT.check_fingerprints(&committed, &swept_doc(&[("a", 1, 1), ("c", 1, 2)])),
            vec![
                "name c: not in the committed file",
                "name b: committed but not run"
            ]
        );
        let single = |fp: u64| {
            Doc::new("single", "quick")
                .str("fingerprint", format_args!("{fp:#018x}"))
                .end()
        };
        assert!(SINGLE.check_fingerprints(&single(7), &single(7)).is_empty());
        assert_eq!(SINGLE.check_fingerprints(&single(7), &single(8)).len(), 1);
    }

    #[test]
    fn divergences_ignore_timings_and_name_the_rows_that_moved() {
        let row = |name: &str, shards: usize, fp: u64, secs: f64| {
            Row::default()
                .str("name", name)
                .val("shards", shards)
                .fixed("elapsed_s", secs, 6)
                .fp("stats_fingerprint", fp)
                .fixed("speedup_vs_1shard", 1.0 / secs, 3)
                .end()
        };
        let rows = [
            row("a", 1, 1, 0.5),
            row("b", 1, 2, 0.5),
            row("a", 4, 1, 0.25),
            row("b", 4, 9, 0.5),
            row("c", 4, 3, 0.5),
        ];
        let d = SWEPT.divergences(&rows);
        assert_eq!(d, vec!["name b @ shards 4", "name c @ shards 4"]);
        assert_eq!(
            determinism(&d),
            "DIVERGED: name b @ shards 4, name c @ shards 4"
        );
        assert!(SWEPT.divergences(&rows[..3]).is_empty());
        assert!(SINGLE.divergences(&rows).is_empty());
    }
}
