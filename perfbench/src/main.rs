//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload as a closed loop of one caller for `--seconds`,
//! checks every output, and prints as its last stdout line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it record the host and the run's
//! contention. A traced run also writes its spans to
//! `target/perfbench/`. `--tiny` shrinks every input for the smoke
//! test. `README.md` explains the workloads and metrics.

mod kp;
mod measure;
mod report;
mod serve;
mod trace;

use std::path::Path;
use std::time::Instant;

use measure::{escape, host_json, median, quantile, ProcSnapshot};
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["kp_build", "kp_many_parts", "kp_faulty", "serve_stream"];

/// Set-ups are spread over the timed loop: another one runs after an
/// operation whenever set-ups so far took less than this share of the
/// loop, so `setup_s`, their median, samples the same host regimes as
/// the operations do rather than the first milliseconds of the run.
const SETUP_SHARE: f64 = 0.05;
/// Fewest set-ups, and fewest timed operations, per run.
const MIN_SETUPS: usize = 5;
const MIN_OPS: usize = 5;
/// Most set-ups per run.
const MAX_SETUPS: usize = 500;

/// What a workload needs from the command line, plus the span recorder.
pub struct Ctx {
    /// Run seed: the same seed gives the same inputs. It drives the
    /// query stream of `serve_stream`; the inputs that decide the exact
    /// counts are pinned on every workload.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Tiny inputs (smoke test).
    pub tiny: bool,
    /// Span recorder, on only in a traced run.
    pub tracer: Tracer,
}

impl Ctx {
    /// Whether a set-up should run now, after `setup_s` so far and
    /// `loop_s` seconds of the timed loop.
    pub fn setup_due(&self, setup_s: &[f64], loop_s: f64) -> bool {
        setup_s.len() < MIN_SETUPS
            || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SHARE * loop_s)
    }

    /// Whether the timed loop is over after `ops` operations, `setups`
    /// set-ups and `loop_s` seconds.
    pub fn done(&self, ops: usize, setups: usize, loop_s: f64) -> bool {
        ops >= MIN_OPS && setups >= MIN_SETUPS && loop_s >= self.seconds
    }
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("bad --seed")),
                )
            }
            "--seconds" => {
                let s = value()
                    .parse::<f64>()
                    .unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s.is_finite()) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => tiny = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let mut ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        tiny,
        tracer: Tracer::new(trace),
    };

    let host = host_json();
    println!("{{\"host\":{host}}}");
    let start = ProcSnapshot::now();
    let t = Instant::now();
    let mut report = match workload.as_str() {
        "kp_build" => kp::run(kp::Kind::Build, &mut ctx),
        "kp_many_parts" => kp::run(kp::Kind::ManyParts, &mut ctx),
        "kp_faulty" => kp::run(kp::Kind::Faulty, &mut ctx),
        "serve_stream" => serve::run(&mut ctx),
        other => usage(&format!("unknown workload {other}")),
    };
    let whole = ProcSnapshot::now().since(&start);
    report.set("setup_s", median(&report.setup_s));

    if trace {
        report.set("trace.spans", ctx.tracer.len() as f64);
        for (layer, s) in ctx.tracer.self_seconds_by_layer() {
            report.set(&format!("trace.self_s.{layer}"), s);
        }
        let stem = format!("{workload}-seed{}", ctx.seed);
        let dir = Path::new("target").join("perfbench");
        match ctx.tracer.write(&dir, &stem, &host) {
            Ok(()) => eprintln!(
                "perfbench: spans written to {}/{stem}.*.json",
                dir.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }

    let failures = report
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"wall_s\":{:.3},\"fail_ratio\":{},\"failures\":[{}],",
            "\"op_ms\":{{\"n\":{},\"p10\":{:.4},\"p25\":{:.4},\"p50\":{:.4},\"p75\":{:.4},\"p90\":{:.4}}},",
            "\"contention\":{{\"caller_runq_wait_s\":{:.6},\"steal_s\":{:.3},\"cpu_s\":{:.2}}},",
            "\"setup_ms\":{{\"n\":{},\"p10\":{:.4},\"p50\":{:.4},\"p90\":{:.4}}}}}"
        ),
        workload,
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
        t.elapsed().as_secs_f64(),
        report.fail_ratio(),
        failures,
        report.samples_ms.len(),
        quantile(&report.samples_ms, 0.1),
        quantile(&report.samples_ms, 0.25),
        quantile(&report.samples_ms, 0.5),
        quantile(&report.samples_ms, 0.75),
        quantile(&report.samples_ms, 0.9),
        whole.runq_wait_s,
        whole.steal_s,
        whole.cpu_s,
        report.setup_s.len(),
        quantile(&report.setup_s, 0.1) * 1e3,
        median(&report.setup_s) * 1e3,
        quantile(&report.setup_s, 0.9) * 1e3,
    );
    println!("{}", report.result_json(trace));
}
