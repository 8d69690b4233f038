//! Ablations for the construction knobs listed in the README's
//! Substitutions section:
//!
//! * repetition count (`D` independent repetitions vs 1 boosted one);
//! * sampling-probability constant;
//! * largeness rule (radius vs size);
//! * random start delays in the scheduled BFS (on vs off).

use lcs_bench::{f3, highway_workload, BenchArgs, Table};
use lcs_congest::{MultiBfs, MultiBfsInstance, MultiBfsSpec, Session, SimConfig};
use lcs_core::{
    centralized_shortcuts, classify_large, shared_delay, KpParams, LargenessRule, OracleMode,
    SampleOracle,
};
use lcs_shortcut::{measure_quality, DilationMode};
use std::sync::Arc;

fn main() {
    let args = BenchArgs::from_env();
    let nt = if args.quick { 600 } else { 2500 };
    let d = 4u32;
    let (hw, partition) = highway_workload(nt, d);
    let g = hw.graph();
    let n = g.n();

    // --- Ablation 1: repetitions. -------------------------------------
    let mut t1 = Table::new(
        "ablate_repetitions: D independent repetitions vs 1 boosted repetition",
        &["variant", "c", "dil", "c+d"],
    );
    {
        let paper = KpParams::new(n, d, 1.0).expect("params");
        let one_rep = {
            // Same marginal probability: 1 - (1-p)^D ≈ D·p, capped.
            let mut p = paper;
            p.p = (1.0 - (1.0 - paper.p).powi(paper.reps as i32)).min(1.0);
            p.with_reps(1)
        };
        for (name, params) in [("paper (reps=D)", paper), ("boosted (reps=1)", one_rep)] {
            let out = centralized_shortcuts(
                g,
                &partition,
                params,
                5,
                LargenessRule::Radius,
                OracleMode::PerArc,
            );
            let q = measure_quality(g, &partition, &out.shortcuts, DilationMode::Exact).quality;
            t1.row(vec![
                name.to_string(),
                q.congestion.to_string(),
                q.dilation.to_string(),
                q.total().to_string(),
            ]);
        }
    }
    t1.print();

    // --- Ablation 2: probability constant. ----------------------------
    let mut t2 = Table::new(
        "ablate_probability: quality vs sampling constant",
        &["constant", "p", "c", "dil", "c+d"],
    );
    for c in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let params = KpParams::new(n, d, c).expect("params");
        let out = centralized_shortcuts(
            g,
            &partition,
            params,
            5,
            LargenessRule::Radius,
            OracleMode::PerArc,
        );
        let q = measure_quality(g, &partition, &out.shortcuts, DilationMode::Exact).quality;
        t2.row(vec![
            f3(c),
            f3(params.p),
            q.congestion.to_string(),
            q.dilation.to_string(),
            q.total().to_string(),
        ]);
    }
    t2.print();

    // --- Ablation 3: largeness rule. ----------------------------------
    let mut t3 = Table::new(
        "ablate_largeness: radius rule vs size rule",
        &["rule", "large parts", "c+d"],
    );
    {
        let params = KpParams::new(n, d, 1.0).expect("params");
        for (name, rule) in [
            ("radius (distributed test)", LargenessRule::Radius),
            ("size (paper definition)", LargenessRule::Size),
        ] {
            let larges = classify_large(g, &partition, params.k_ceil, rule)
                .iter()
                .filter(|&&l| l)
                .count();
            let out = centralized_shortcuts(g, &partition, params, 5, rule, OracleMode::PerArc);
            let q = measure_quality(g, &partition, &out.shortcuts, DilationMode::Exact).quality;
            t3.row(vec![
                name.to_string(),
                larges.to_string(),
                q.total().to_string(),
            ]);
        }
    }
    t3.print();

    // --- Ablation 4: random start delays in the scheduled BFS. --------
    let mut t4 = Table::new(
        "ablate_scheduler: random start delays vs simultaneous starts",
        &["variant", "rounds", "max queue"],
    );
    {
        let params = KpParams::new(n, d, 1.0).expect("params");
        let oracle = SampleOracle::new(5, params.p, params.reps);
        let leaders: Vec<_> = (0..partition.num_parts())
            .map(|i| partition.leader(i))
            .collect();
        let part = Arc::new(partition.clone());
        let lead = Arc::new(leaders.clone());
        let reps = params.reps;
        let membership = lcs_congest::Membership::func(move |u, v, inst| {
            let pi = inst;
            if part.part_of(u) == Some(pi) || part.part_of(v) == Some(pi) {
                return true;
            }
            (0..reps).any(|r| oracle.sampled_by(u, v, lead[inst as usize], r))
        });
        for (name, delays) in [("delayed", true), ("bunched", false)] {
            let phase_len = lcs_congest::ceil_log2(n) as u64;
            let instances: Vec<MultiBfsInstance> = (0..partition.num_parts())
                .map(|i| MultiBfsInstance {
                    root: leaders[i],
                    start_round: if delays {
                        shared_delay(99, i as u32, params.k_ceil as u64) * phase_len
                    } else {
                        0
                    },
                    depth_limit: params.depth_limit(),
                })
                .collect();
            let spec = Arc::new(MultiBfsSpec {
                instances,
                membership: membership.clone(),
                queue_cap: 0,
            });
            let out = Session::new(g, SimConfig::default())
                .run(MultiBfs::new(spec))
                .expect("bfs bundle");
            t4.row(vec![
                name.to_string(),
                out.stats.rounds.to_string(),
                out.max_queue.to_string(),
            ]);
        }
    }
    t4.print();

    // --- Ablation 5: part shape (gamma sweep). ------------------------
    // Gamma = n^gexp paths of length ~n^(1-gexp): KP quality should be
    // ~flat across shapes (always Õ(k_D)) while the trivial baseline
    // pays the part length and the global tree pays the part count —
    // the framework's "good for every part collection" universality.
    let mut t5 = Table::new(
        "ablate_part_shape: quality vs part-count exponent (D=4, n≈2500)",
        &[
            "gamma exp",
            "paths",
            "path len",
            "KP c+d",
            "trivial c+d",
            "glob-tree c+d",
        ],
    );
    for gexp in [0.25f64, 0.4, 0.5, 0.6, 0.75] {
        let Ok(hw) = lcs_graph::HighwayGraph::with_gamma_exponent(2500, 4, gexp) else {
            continue;
        };
        let g = hw.graph();
        let Ok(partition) = lcs_shortcut::Partition::new(g, hw.path_parts()) else {
            continue;
        };
        let Ok(params) = KpParams::new(g.n(), 4, 1.0) else {
            continue;
        };
        let kp = centralized_shortcuts(
            g,
            &partition,
            params,
            9,
            LargenessRule::Radius,
            OracleMode::PerArc,
        );
        let kp_q = measure_quality(g, &partition, &kp.shortcuts, DilationMode::Exact).quality;
        let triv = measure_quality(
            g,
            &partition,
            &lcs_shortcut::trivial_shortcuts(&partition),
            DilationMode::Exact,
        )
        .quality;
        let glob = measure_quality(
            g,
            &partition,
            &lcs_shortcut::global_tree_shortcuts(g, &partition, 0, Some(1)),
            DilationMode::Exact,
        )
        .quality;
        let p = hw.params();
        t5.row(vec![
            format!("{gexp:.2}"),
            p.num_paths.to_string(),
            p.path_len.to_string(),
            kp_q.total().to_string(),
            triv.total().to_string(),
            glob.total().to_string(),
        ]);
    }
    t5.print();
    println!("reading: KP stays in one band across shapes; trivial blows up with\npath length (small gamma), global-tree with part count (large gamma).");
}
