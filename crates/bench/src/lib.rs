//! # lcs-bench
//!
//! Experiment harness reproducing every claim of *Kogan & Parter,
//! PODC 2021* as a measurable table. The paper is a theory paper — its
//! "tables and figures" are theorems and schematic figures — so each
//! experiment binary (`src/bin/e*.rs`) operationalizes one claim:
//! a parameter sweep whose measured scaling is compared against the
//! claimed bound. `EXPERIMENTS.md` records the outputs.
//!
//! Shared infrastructure: aligned table printing, log-log slope fits,
//! standard workload constructors, and a `--quick` switch for CI-scale
//! runs.

#![warn(missing_docs)]

pub mod quality;

use lcs_graph::{HighwayGraph, NodeId};
use lcs_shortcut::Partition;

/// A printed results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the measured
/// exponent of a power law. Returns `None` with fewer than two valid
/// points.
pub fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Standard benchmark workload: the balanced highway hard instance with
/// its path parts.
pub fn highway_workload(n_target: usize, diameter: u32) -> (HighwayGraph, Partition) {
    let hw = HighwayGraph::balanced(n_target, diameter).expect("valid workload parameters");
    let parts = hw.path_parts();
    let partition = Partition::new(hw.graph(), parts).expect("path parts are valid");
    (hw, partition)
}

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` / `-h`: print the accepted flags and exit 0.
    Help,
    /// An unknown flag or a malformed value: print the reason plus the
    /// accepted flags and exit 2.
    Bad(String),
}

impl ArgsError {
    /// Prints `usage` (after the reason, for a bad command line) and
    /// exits: status 0 for `--help`, 2 otherwise.
    pub fn exit(self, usage: &str) -> ! {
        match self {
            ArgsError::Help => {
                println!("{usage}");
                std::process::exit(0)
            }
            ArgsError::Bad(reason) => {
                eprintln!("{reason}\n{usage}");
                std::process::exit(2)
            }
        }
    }
}

/// The flags every experiment binary accepts: `--quick`, `--trace`
/// (alias `--trichotomy`) and `--seed N`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// CI-scale run.
    pub quick: bool,
    /// Verbose per-instance traces.
    pub trace: bool,
    /// Optional seed override.
    pub seed: Option<u64>,
}

impl BenchArgs {
    /// Reads flags from the process arguments. On `--help` prints the
    /// accepted flags and exits 0; on an unknown flag or a `--seed`
    /// without a number prints them and exits 2.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            e.exit("flags: [--quick] [--trace | --trichotomy] [--seed N] [--help]")
        })
    }

    /// Parses flags (program name excluded).
    ///
    /// # Errors
    ///
    /// [`ArgsError::Help`] for `--help` / `-h`; [`ArgsError::Bad`] for
    /// an unknown argument or a missing / non-numeric `--seed` value.
    pub fn parse(args: &[String]) -> Result<Self, ArgsError> {
        let mut a = BenchArgs::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => a.quick = true,
                "--trace" | "--trichotomy" => a.trace = true,
                "--seed" => {
                    let raw = args.next().map_or("", String::as_str);
                    let seed = raw.parse().map_err(|_| {
                        ArgsError::Bad(format!("--seed needs a number, got {raw:?}"))
                    })?;
                    a.seed = Some(seed);
                }
                "--help" | "-h" => return Err(ArgsError::Help),
                other => return Err(ArgsError::Bad(format!("unknown argument {other:?}"))),
            }
        }
        Ok(a)
    }

    /// Picks between a full and a quick sweep.
    pub fn sizes<'a>(&self, full: &'a [usize], quick: &'a [usize]) -> &'a [usize] {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Geometric mean of ratios (for summarizing bound slack).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Per-part sizes of a partition (printing helper).
pub fn part_sizes(partition: &Partition) -> Vec<usize> {
    (0..partition.num_parts())
        .map(|i| partition.part(i).len())
        .collect()
}

/// All nodes of a partition's parts flattened (test helper).
pub fn covered_nodes(partition: &Partition) -> Vec<NodeId> {
    partition.parts().iter().flatten().copied().collect()
}

/// Shared simulator-throughput workloads, used by both the
/// `sim_throughput` binary (full scale, emits `BENCH_sim.json`) and the
/// `sim_throughput` criterion bench — one definition, so the two
/// trend lines measure the same thing.
pub mod sim_workloads {
    use lcs_congest::{MultiBfsInstance, MultiBfsSpec, Protocol, RoundCtx, RunStats, Wake};
    use lcs_graph::{Graph, NodeId};
    use std::sync::Arc;

    /// Node 0 stays awake (explicit [`Wake`] contract — it gets no
    /// mail) for a fixed number of rounds, then sleeps; every other
    /// node sleeps after round 0. This is the engine's pure
    /// **idle-round** workload: under event-driven active sets each
    /// round costs O(1) — independent of `n`, and of the shard count
    /// too, because near-quiescent rounds run inline on the coordinator
    /// instead of crossing the worker barrier.
    #[derive(Debug)]
    pub struct Clock {
        ticks: u64,
    }

    impl Clock {
        /// Node 0 stays scheduled for `ticks` rounds (0 = every node
        /// sleeps after round 0).
        pub fn new(ticks: u64) -> Self {
            Clock { ticks }
        }
    }

    impl Protocol for Clock {
        type Msg = u32;
        /// Rounds this node still stays awake.
        type State = u64;
        type Output = RunStats;
        fn label(&self) -> &str {
            "clock"
        }
        fn init(&mut self, graph: &Graph) -> Vec<u64> {
            (0..graph.n())
                .map(|v| if v == 0 { self.ticks } else { 0 })
                .collect()
        }
        fn round(&self, ticks: &mut u64, _ctx: &mut RoundCtx<'_, u32>) {
            *ticks = ticks.saturating_sub(1);
        }
        fn halted(&self, _: &u64) -> bool {
            true
        }
        fn wake(&self, ticks: &u64) -> Wake {
            if *ticks > 0 {
                Wake::Stay
            } else {
                Wake::Sleep
            }
        }
        fn finish(self, _: &Graph, _: Vec<u64>, stats: &RunStats) -> RunStats {
            stats.clone()
        }
    }

    /// Saturates every arc every round: the raw engine message path
    /// (send → slot → gather) with a trivial node program.
    #[derive(Debug)]
    pub struct Saturate {
        rounds: u64,
    }

    impl Saturate {
        /// Every node sends to every neighbor for `rounds` rounds.
        pub fn new(rounds: u64) -> Self {
            Saturate { rounds }
        }
    }

    impl Protocol for Saturate {
        type Msg = u32;
        /// Rounds left to keep sending, and a checksum of everything
        /// heard (the receive side's work).
        type State = (u64, u64);
        type Output = RunStats;
        fn label(&self) -> &str {
            "saturate"
        }
        fn init(&mut self, graph: &Graph) -> Vec<(u64, u64)> {
            vec![(self.rounds, 0); graph.n()]
        }
        fn round(&self, (rounds_left, sum): &mut (u64, u64), ctx: &mut RoundCtx<'_, u32>) {
            for &(_, m) in ctx.inbox() {
                *sum = sum.wrapping_add(u64::from(m));
            }
            if *rounds_left > 0 {
                *rounds_left -= 1;
                for i in 0..ctx.degree() {
                    ctx.send_nth(i, ctx.round() as u32);
                }
            }
        }
        fn halted(&self, &(rounds_left, _): &(u64, u64)) -> bool {
            rounds_left == 0
        }
        fn finish(self, _: &Graph, _: Vec<(u64, u64)>, stats: &RunStats) -> RunStats {
            stats.clone()
        }
    }

    /// The standard multi-BFS bundle: `instances` full-membership BFS
    /// roots spread evenly over `0..n`, staggered starts, unlimited
    /// depth.
    pub fn multi_bfs_spec(n: usize, instances: usize) -> Arc<MultiBfsSpec> {
        Arc::new(MultiBfsSpec {
            instances: (0..instances)
                .map(|i| MultiBfsInstance {
                    root: ((i * n) / instances) as NodeId,
                    start_round: (i as u64 * 3) % 16,
                    depth_limit: u32::MAX,
                })
                .collect(),
            membership: lcs_congest::Membership::All,
            queue_cap: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, ArgsError> {
        BenchArgs::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bench_args_accept_known_flags() {
        assert_eq!(parse(&[]), Ok(BenchArgs::default()));
        assert_eq!(
            parse(&["--quick", "--trichotomy", "--seed", "42"]),
            Ok(BenchArgs {
                quick: true,
                trace: true,
                seed: Some(42),
            })
        );
    }

    #[test]
    fn bench_args_reject_bad_flags_and_answer_help() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        assert_eq!(parse(&["--quick", "-h"]), Err(ArgsError::Help));
        for bad in [
            &["--seed", "foo"][..],
            &["--seed"],
            &["--qiuck"],
            &["quick"],
        ] {
            assert!(
                matches!(parse(bad), Err(ArgsError::Bad(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn slope_of_exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..20)
            .map(|i| {
                let x = i as f64 * 10.0;
                (x, 3.0 * x.powf(0.25))
            })
            .collect();
        let s = loglog_slope(&pts).unwrap();
        assert!((s - 0.25).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn slope_edge_cases() {
        assert!(loglog_slope(&[]).is_none());
        assert!(loglog_slope(&[(1.0, 2.0)]).is_none());
        assert!(loglog_slope(&[(0.0, 2.0), (-1.0, 3.0)]).is_none());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn workload_construction() {
        let (hw, p) = highway_workload(500, 4);
        assert!(hw.n() >= 300);
        assert!(p.num_parts() >= 2);
    }

    #[test]
    fn geomean_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }
}
