//! Tiny-scale smoke test of the benchmark: every workload `BENCHMARK.json`
//! lists prints exactly the metrics it declares, with their units, in
//! both the untraced and the traced run, and no operation fails.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough JSON for the benchmark's output).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in {text}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {}", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {}", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            out.push(self.s[self.i] as char);
                            self.i += 1;
                        }
                        _ => out.push(c as char),
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

/// `(name → unit)` of one metric list of the spec.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// Runs one tiny workload; returns the detail line and the result line.
fn run(workload: &str, seed: u64, trace: u8) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 3, "{workload}: too few lines:\n{stdout}");
    Parser::parse(lines[0]).get("host").get("nproc").num();
    (
        Parser::parse(lines[lines.len() - 2]),
        Parser::parse(lines[lines.len() - 1]),
    )
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec = spec();
    for w in spec.get("workloads").arr() {
        let workload = w.get("name").str();
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (detail, result) = run(workload, 7, trace);
            let keys: Vec<&String> = result.obj().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
            assert_eq!(result.get("failed").num(), 0.0, "{workload}");
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(detail.get("fail_ratio").num(), 0.0, "{workload}");

            let want = declared(&spec, list);
            let got = result.get("metrics").obj();
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{workload} trace {trace}"
            );
            for (name, m) in got {
                assert_eq!(
                    m.get("unit").str(),
                    want[name],
                    "{workload}: unit of {name}"
                );
                let v = m.get("value").num();
                assert!(v.is_finite() && v >= 0.0, "{workload}: {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{workload}: end-to-end {name} is 0");
                }
            }
        }
    }
}

/// The exact counts carry tight bounds, so they must repeat to the
/// digit in every run, whatever the seed.
#[test]
fn exact_counts_do_not_depend_on_the_seed() {
    for w in spec().get("workloads").arr() {
        let workload = w.get("name").str();
        let counts = |seed| {
            let (_, result) = run(workload, seed, 0);
            let m = result.get("metrics");
            ["rounds", "messages", "congestion", "dilation"].map(|k| m.get(k).get("value").num())
        };
        assert_eq!(counts(3), counts(11), "{workload}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "kp_build", "--seconds", "1", "--trace", "0"],
        vec![
            "--workload",
            "kp_build",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
