//! The [`ShortcutBuilder`] trait: one interface over every shortcut
//! construction, so backends can be swapped, differentially tested, and
//! benchmarked against each other (`quality_bench`).
//!
//! A backend is a *strategy object*: cheap to construct, carrying only
//! its parameters. [`ShortcutBuilder::build`] must be a pure function of
//! `(graph, partition, rng stream)` — equal inputs and an equally seeded
//! RNG must produce a bit-identical [`ShortcutSet`]. The differential
//! suite (`tests/builder_equivalence.rs`) holds the migrated baselines
//! to byte-equality with their pre-trait free functions, and the CI
//! quality-bench fingerprint gate holds every backend to cross-run
//! determinism.
//!
//! The core crate adapts the Kogan–Parter pipeline onto this trait as
//! `lcs_core::KoganParter`.
//!
//! ## Adding a backend
//!
//! 1. Implement [`ShortcutBuilder`] (and [`declared_bound`] if the
//!    construction carries a provable or structural quality
//!    certificate).
//! 2. Register it in `lcs_bench::quality::registry` so the quality
//!    bench, the tier-2 registry proptest, and the CI gate pick it up.
//!
//! [`declared_bound`]: ShortcutBuilder::declared_bound

use crate::baseline::{global_tree_shortcuts, kitamura_style_shortcuts, trivial_shortcuts};
use crate::partition::Partition;
use crate::shortcut::{Quality, ShortcutSet};
use lcs_graph::{eccentricity, Graph, NodeId};
use rand::RngCore;

/// A shortcut construction: given a graph and a partition into
/// vertex-disjoint connected parts, produce one shortcut edge set per
/// part (Definition 1.1 of Ghaffari–Haeupler).
pub trait ShortcutBuilder {
    /// Stable machine-readable backend name (used in `BENCH_quality.json`
    /// cells and test labels).
    fn name(&self) -> &'static str;

    /// The backend's parameters as `(key, value)` pairs, for reporting.
    fn params(&self) -> Vec<(&'static str, String)>;

    /// Builds the shortcut set. Must be deterministic in
    /// `(graph, partition, rng stream)`.
    fn build(&self, graph: &Graph, partition: &Partition, rng: &mut dyn RngCore) -> ShortcutSet;

    /// Whether this backend's construction applies to the given
    /// instance at all (e.g. the Kitamura sampling baseline is
    /// specialized to diameters 3 and 4). Inapplicable backends are
    /// skipped by the bench and the registry proptest.
    fn applicable(&self, _graph: &Graph, _partition: &Partition) -> bool {
        true
    }

    /// The quality bound this construction guarantees on this instance,
    /// when it has one: a provable closed form (Kogan–Parter's k(D)
    /// bounds) or a structural certificate computed by the construction
    /// itself (separator hierarchies, capped growth). `None` when the
    /// backend makes no per-instance promise (probabilistic baselines).
    ///
    /// The contract — enforced by `verifier::verify` in the bench and
    /// the tier-2 registry proptest — is that measured quality never
    /// exceeds the declared bound.
    fn declared_bound(&self, _graph: &Graph, _partition: &Partition) -> Option<Quality> {
        None
    }
}

/// The `H_i = ∅` baseline behind the trait: congestion ≤ 1 by
/// definition, dilation bounded only by the part diameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trivial;

impl ShortcutBuilder for Trivial {
    fn name(&self) -> &'static str {
        "trivial"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }

    fn build(&self, _graph: &Graph, partition: &Partition, _rng: &mut dyn RngCore) -> ShortcutSet {
        trivial_shortcuts(partition)
    }

    fn declared_bound(&self, graph: &Graph, _partition: &Partition) -> Option<Quality> {
        // A connected part's induced diameter is at most n - 1.
        Some(Quality {
            congestion: 1,
            dilation: graph.n().saturating_sub(1) as u32,
        })
    }
}

/// The folklore `O(D + √n)` global-tree baseline behind the trait
/// (see [`global_tree_shortcuts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalTree {
    /// BFS-tree root (default 0).
    pub root: NodeId,
    /// Part-size threshold above which a part receives the tree;
    /// `None` (the default) = `⌈√n⌉`.
    pub threshold: Option<usize>,
}

impl GlobalTree {
    fn effective_threshold(&self, graph: &Graph) -> usize {
        self.threshold
            .unwrap_or_else(|| (graph.n() as f64).sqrt().ceil() as usize)
    }
}

impl ShortcutBuilder for GlobalTree {
    fn name(&self) -> &'static str {
        "global_tree"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("root", self.root.to_string()),
            (
                "threshold",
                self.threshold
                    .map_or_else(|| "sqrt".to_string(), |t| t.to_string()),
            ),
        ]
    }

    fn build(&self, graph: &Graph, partition: &Partition, _rng: &mut dyn RngCore) -> ShortcutSet {
        global_tree_shortcuts(graph, partition, self.root, self.threshold)
    }

    fn declared_bound(&self, graph: &Graph, partition: &Partition) -> Option<Quality> {
        // Congestion: the tree is shared by every "large" part, plus at
        // most one part owning an edge internally. Dilation: large parts
        // route through the root (≤ 2·ecc(root)), small parts stay
        // inside themselves (diameter < threshold). Both need the tree
        // to span the graph, hence the connectivity requirement.
        let ecc = eccentricity(graph, self.root, true)?;
        let threshold = self.effective_threshold(graph);
        let large = (0..partition.num_parts())
            .filter(|&i| partition.part(i).len() >= threshold)
            .count() as u32;
        Some(Quality {
            congestion: large + 1,
            dilation: (2 * ecc).max(threshold.saturating_sub(1) as u32).max(1),
        })
    }
}

/// The Kitamura-style sampling baseline behind the trait
/// (see [`kitamura_style_shortcuts`]); applicable to `D ∈ {3, 4}` only.
#[derive(Debug, Clone, Copy)]
pub struct KitamuraSampling {
    /// Target diameter (3 or 4).
    pub d: u32,
    /// Sampling-probability constant `c` in `p = c·log n·n^(−1/(D−1))`.
    pub prob_constant: f64,
}

impl ShortcutBuilder for KitamuraSampling {
    fn name(&self) -> &'static str {
        "kitamura_sampling"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("d", self.d.to_string()),
            ("prob_constant", format!("{}", self.prob_constant)),
        ]
    }

    fn applicable(&self, _graph: &Graph, _partition: &Partition) -> bool {
        self.d == 3 || self.d == 4
    }

    fn build(
        &self,
        graph: &Graph,
        partition: &Partition,
        mut rng: &mut dyn RngCore,
    ) -> ShortcutSet {
        // `&mut dyn RngCore` itself implements `Rng` (and is `Sized`),
        // so the generic free function sees the identical RNG stream —
        // the byte-equality differential suite depends on this.
        kitamura_style_shortcuts(graph, partition, self.d, self.prob_constant, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortcut::{measure_quality, DilationMode};
    use crate::verifier::verify;
    use lcs_graph::{gnp_connected, HighwayGraph, HighwayParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixture() -> (Graph, Partition) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 14,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        (g, p)
    }

    #[test]
    fn trait_objects_are_registrable() {
        let backends: Vec<Box<dyn ShortcutBuilder>> = vec![
            Box::new(Trivial),
            Box::new(GlobalTree::default()),
            Box::new(KitamuraSampling {
                d: 4,
                prob_constant: 1.0,
            }),
        ];
        let (g, p) = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for b in &backends {
            assert!(!b.name().is_empty());
            if !b.applicable(&g, &p) {
                continue;
            }
            let s = b.build(&g, &p, &mut rng);
            verify(&g, &p, &s, b.declared_bound(&g, &p), DilationMode::Exact)
                .unwrap_or_else(|e| panic!("{} failed verification: {e:?}", b.name()));
        }
    }

    #[test]
    fn declared_bounds_hold_on_random_graphs() {
        for seed in [3u64, 4, 5] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = gnp_connected(60, 0.08, &mut rng);
            let p = Partition::bfs_balls(&g, 5, &mut rng);
            for b in [
                Box::new(Trivial) as Box<dyn ShortcutBuilder>,
                Box::new(GlobalTree::default()),
            ] {
                let s = b.build(&g, &p, &mut rng);
                let q = measure_quality(&g, &p, &s, DilationMode::Exact).quality;
                let bound = b.declared_bound(&g, &p).expect("bound exists");
                assert!(
                    q.congestion <= bound.congestion && q.dilation <= bound.dilation,
                    "{}: measured {q:?} exceeds declared {bound:?}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn kitamura_backend_reports_applicability() {
        let (g, p) = fixture();
        let yes = KitamuraSampling {
            d: 3,
            prob_constant: 1.0,
        };
        let no = KitamuraSampling {
            d: 5,
            prob_constant: 1.0,
        };
        assert!(yes.applicable(&g, &p));
        assert!(!no.applicable(&g, &p));
    }
}
