//! Customization: re-weight the edges of a frozen index **without
//! re-partitioning** — the CCH-style middle phase. The expensive,
//! weight-independent structure (partition, shortcut sets, aggregation
//! trees) is reused as-is from the [`ShortcutIndex`]; only the
//! weight-dependent tables (the per-tree weighted depths SSSP's tree
//! relaxation needs) are recomputed, which is a single pass over the
//! tree edges.

use lcs_apps::weighted_depths;
use lcs_graph::{NodeId, WeightedGraph};
use lcs_shortcut::{AggregationSetup, ShortcutIndex};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Customization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CustomizeError {
    /// `weights.len() != graph.m()` or a weight is invalid.
    BadWeights(String),
}

impl fmt::Display for CustomizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CustomizeError::BadWeights(why) => write!(f, "bad weights: {why}"),
        }
    }
}

impl std::error::Error for CustomizeError {}

/// A [`ShortcutIndex`] specialized to one weight assignment: the
/// shared frozen structure plus the recomputed weight-dependent
/// tables. Immutable after construction (`Sync`), so any number of
/// query workers can share one `Arc<CustomizedIndex>` read-only.
#[derive(Debug)]
pub struct CustomizedIndex {
    index: Arc<ShortcutIndex>,
    wg: WeightedGraph,
    setup: AggregationSetup,
    /// Weighted depth of every tree node from its tree root, one map
    /// per part tree: [`lcs_apps::weighted_depths`] of the frozen trees
    /// under the active weights, computed once here at customization
    /// time instead of once per SSSP query.
    depths: Vec<HashMap<NodeId, u64>>,
}

impl CustomizedIndex {
    /// Customizes with the index's own baseline weights.
    pub fn baseline(index: Arc<ShortcutIndex>) -> Self {
        let weights = index.weights().to_vec();
        Self::with_weights(index, weights).expect("baseline weights are valid by construction")
    }

    /// Customizes with a fresh weight assignment (one weight per edge
    /// of the index graph). The partition, shortcuts, and trees are
    /// **not** rebuilt.
    ///
    /// # Errors
    ///
    /// [`CustomizeError::BadWeights`] when the weight vector does not
    /// match the graph.
    pub fn with_weights(
        index: Arc<ShortcutIndex>,
        weights: Vec<u64>,
    ) -> Result<Self, CustomizeError> {
        if weights.len() != index.graph().m() {
            return Err(CustomizeError::BadWeights(format!(
                "{} weights for {} edges",
                weights.len(),
                index.graph().m()
            )));
        }
        let wg = WeightedGraph::new(index.graph().clone(), weights)
            .map_err(|e| CustomizeError::BadWeights(e.to_string()))?;
        let setup = index.aggregation_setup();
        let depths = weighted_depths(&wg, &setup);
        Ok(CustomizedIndex {
            index,
            wg,
            setup,
            depths,
        })
    }

    /// The underlying frozen index.
    pub fn index(&self) -> &Arc<ShortcutIndex> {
        &self.index
    }

    /// The graph with the active (customized) weights.
    pub fn weighted_graph(&self) -> &WeightedGraph {
        &self.wg
    }

    /// The frozen aggregation trees.
    pub fn setup(&self) -> &AggregationSetup {
        &self.setup
    }

    /// The recomputed per-tree weighted-depth tables.
    pub fn depths(&self) -> &[HashMap<NodeId, u64>] {
        &self.depths
    }
}
