//! The paper's construction adapted onto the framework-level
//! [`lcs_shortcut::ShortcutBuilder`] trait, so the Kogan–Parter pipeline
//! competes in the same registry (quality bench, tier-2 registry
//! proptest, CI fingerprint gate) as the baselines and the structural
//! backends.
//!
//! [`KoganParter::build`] runs exactly the centralized pipeline the rest
//! of this crate tests — [`centralized_shortcuts`] with
//! [`LargenessRule::Radius`] and [`OracleMode::PerPart`], optionally
//! followed by [`prune_to_trees`] at the paper's depth limit — seeding
//! it with one `u64` drawn from the caller's RNG. The differential
//! suite (`tests/backend_equivalence.rs`) holds this adapter
//! byte-identical to the free-function pipeline.

use crate::centralized::{centralized_shortcuts, prune_to_trees, LargenessRule, OracleMode};
use crate::params::KpParams;
use lcs_graph::{exact_diameter, Graph};
use lcs_shortcut::{Partition, Quality, ShortcutBuilder, ShortcutSet};
use rand::RngCore;

/// The Kogan–Parter constant-diameter construction as a registrable
/// backend (centralized execution; see the crate docs for the
/// distributed one).
#[derive(Debug, Clone, Copy)]
pub struct KoganParter {
    /// Known diameter; `None` = measure it (clamped to ≥ 3, the
    /// smallest `D` the parameterization supports).
    pub diameter: Option<u32>,
    /// Sampling-probability constant (`1.0` = paper).
    pub prob_constant: f64,
    /// Prune the raw sampled sets to depth-limited BFS trees (the
    /// protocol's actual output). The default.
    pub pruned: bool,
}

impl Default for KoganParter {
    fn default() -> Self {
        KoganParter {
            diameter: None,
            prob_constant: 1.0,
            pruned: true,
        }
    }
}

impl KoganParter {
    fn resolve_params(&self, graph: &Graph) -> Option<KpParams> {
        let d = match self.diameter {
            Some(d) => d,
            None => exact_diameter(graph)?,
        };
        KpParams::new(graph.n(), d.max(3), self.prob_constant).ok()
    }
}

impl ShortcutBuilder for KoganParter {
    fn name(&self) -> &'static str {
        "kogan_parter"
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "diameter",
                self.diameter
                    .map_or_else(|| "measured".to_string(), |d| d.to_string()),
            ),
            ("prob_constant", format!("{}", self.prob_constant)),
            ("pruned", self.pruned.to_string()),
        ]
    }

    fn applicable(&self, graph: &Graph, _partition: &Partition) -> bool {
        self.resolve_params(graph).is_some()
    }

    fn build(&self, graph: &Graph, partition: &Partition, rng: &mut dyn RngCore) -> ShortcutSet {
        // One draw: the pipeline is internally deterministic in its seed,
        // so the whole build is a pure function of the RNG stream.
        let seed = rng.next_u64();
        let Some(params) = self.resolve_params(graph) else {
            return ShortcutSet::empty(partition.num_parts());
        };
        let raw = centralized_shortcuts(
            graph,
            partition,
            params,
            seed,
            LargenessRule::Radius,
            OracleMode::PerPart,
        );
        if self.pruned {
            prune_to_trees(graph, partition, &raw.shortcuts, params.depth_limit()).shortcuts
        } else {
            raw.shortcuts
        }
    }

    fn declared_bound(&self, graph: &Graph, _partition: &Partition) -> Option<Quality> {
        // The paper's targets: congestion O(D·k_D·log n), dilation
        // O(k_D·log n), with the repo's documented constants. These are
        // whp bounds; the bench and the registry proptest enforce them
        // empirically on every cell (README, Substitutions).
        let params = self.resolve_params(graph)?;
        let clamp = |b: u64| b.min(u32::MAX as u64) as u32;
        Some(Quality {
            congestion: clamp(params.congestion_bound()),
            dilation: clamp(params.dilation_bound()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{HighwayGraph, HighwayParams};
    use lcs_shortcut::{measure_quality, verify, DilationMode};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn fixture() -> (Graph, Partition) {
        let hw = HighwayGraph::new(HighwayParams {
            num_paths: 3,
            path_len: 20,
            diameter: 4,
        })
        .unwrap();
        let g = hw.graph().clone();
        let p = Partition::new(&g, hw.path_parts()).unwrap();
        (g, p)
    }

    #[test]
    fn backend_verifies_within_declared_bound() {
        let (g, p) = fixture();
        let b = KoganParter::default();
        assert!(b.applicable(&g, &p));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let s = b.build(&g, &p, &mut rng);
        verify(&g, &p, &s, b.declared_bound(&g, &p), DilationMode::Exact).unwrap();
    }

    #[test]
    fn raw_variant_dominates_pruned() {
        let (g, p) = fixture();
        let pruned = KoganParter::default();
        let raw = KoganParter {
            pruned: false,
            ..KoganParter::default()
        };
        let mut r1 = ChaCha8Rng::seed_from_u64(3);
        let mut r2 = ChaCha8Rng::seed_from_u64(3);
        let sp = pruned.build(&g, &p, &mut r1);
        let sr = raw.build(&g, &p, &mut r2);
        assert!(sp.total_edges() <= sr.total_edges());
        let qp = measure_quality(&g, &p, &sp, DilationMode::Exact).quality;
        assert!(qp.congestion <= pruned.declared_bound(&g, &p).unwrap().congestion);
    }

    #[test]
    fn inapplicable_on_disconnected_without_diameter() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let p = Partition::new(&g, vec![vec![0, 1]]).unwrap();
        let b = KoganParter::default();
        assert!(!b.applicable(&g, &p));
        // Supplying the diameter restores applicability.
        let with_d = KoganParter {
            diameter: Some(3),
            ..KoganParter::default()
        };
        assert!(with_d.applicable(&g, &p));
    }
}
