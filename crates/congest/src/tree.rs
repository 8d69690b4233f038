//! Tree primitives on an already-constructed rooted spanning tree:
//! convergecast aggregation, broadcast, and prefix numbering of marked
//! nodes.
//!
//! All three complete in `O(depth)` rounds with one-word-ish messages —
//! these are the `O(D)`-round bookkeeping steps the paper's distributed
//! construction performs on the global BFS tree (learning `n`, the
//! 2-approximate diameter, numbering the large parts, and the final
//! global verification AND).

use crate::message::Message;
use crate::node::{RoundCtx, Wake};
use crate::protocol::Protocol;
use crate::stats::RunStats;
use lcs_graph::{Graph, NodeId};

/// Aggregation operator for convergecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of values.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

impl AggOp {
    /// Applies the operator.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a.saturating_add(b),
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }

    /// Identity element.
    pub fn identity(self) -> u64 {
        match self {
            AggOp::Sum => 0,
            AggOp::Min => u64::MAX,
            AggOp::Max => 0,
        }
    }
}

/// The position of a node within the rooted tree, as local knowledge.
#[derive(Debug, Clone, Default)]
pub struct TreePosition {
    /// Parent in the tree (None for the root and non-tree nodes).
    pub parent: Option<NodeId>,
    /// Children in the tree.
    pub children: Vec<NodeId>,
    /// Whether this node participates (non-participants are inert).
    pub in_tree: bool,
    /// Whether this node is the root.
    pub is_root: bool,
}

/// Message for convergecast / broadcast / numbering: a tagged value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeMsg {
    /// Aggregate flowing up.
    Up(u64),
    /// Value flowing down.
    Down(u64),
}

impl Message for TreeMsg {
    fn size_words(&self) -> u32 {
        2 // one u64 payload = 2 words; tag absorbed in the constant
    }
}

/// Convergecast: aggregate one `u64` per tree node up to the root, then
/// optionally broadcast the result back down.
#[derive(Debug, Clone)]
pub struct ConvergecastNode {
    pos: TreePosition,
    op: AggOp,
    broadcast: bool,
    acc: u64,
    pending: usize,
    sent_up: bool,
    sent_down: bool,
    /// Neighbor indices of parent/children, resolved on the first round
    /// so every send takes the engine's zero-lookup arc-slot path.
    parent_idx: Option<usize>,
    children_idx: Vec<usize>,
    resolved: bool,
    /// The aggregate (root: after convergecast; all nodes: after
    /// broadcast when enabled).
    pub result: Option<u64>,
}

impl ConvergecastNode {
    /// Creates the node state; `value` is this node's contribution.
    pub(crate) fn new(pos: TreePosition, op: AggOp, value: u64, broadcast: bool) -> Self {
        let pending = pos.children.len();
        ConvergecastNode {
            pos,
            op,
            broadcast,
            acc: value,
            pending,
            sent_up: false,
            sent_down: false,
            parent_idx: None,
            children_idx: Vec::new(),
            resolved: false,
            result: None,
        }
    }
}

/// Tree convergecast (optionally with result broadcast) as a
/// composable [`Protocol`]: aggregates one `u64` per node up the tree
/// described by its [`TreePosition`]s. Its output is
/// `(per-node results, phase stats)`, matching the classic
/// free-function shape.
///
/// Joining several `TreeAggregate`s in one [`Session`](crate::session::Session) phase
/// ([`Session::join`](crate::Session::join)) runs the convergecasts in
/// **shared rounds** — the composable form of the paper's concurrent
/// part-wise aggregation.
#[derive(Debug, Clone)]
pub struct TreeAggregate {
    positions: Vec<TreePosition>,
    values: Vec<u64>,
    op: AggOp,
    broadcast: bool,
}

impl TreeAggregate {
    /// Aggregation of `values` (one per node) over the tree described
    /// by `positions`, with operator `op`; `broadcast` sends the root's
    /// result back down.
    pub fn new(positions: Vec<TreePosition>, values: &[u64], op: AggOp, broadcast: bool) -> Self {
        TreeAggregate {
            positions,
            values: values.to_vec(),
            op,
            broadcast,
        }
    }
}

impl Protocol for TreeAggregate {
    type Msg = TreeMsg;
    type State = ConvergecastNode;
    type Output = (Vec<Option<u64>>, RunStats);

    fn label(&self) -> &str {
        "tree_aggregate"
    }

    fn init(&mut self, graph: &Graph) -> Vec<ConvergecastNode> {
        assert_eq!(self.positions.len(), graph.n());
        assert_eq!(self.values.len(), graph.n());
        std::mem::take(&mut self.positions)
            .into_iter()
            .zip(self.values.iter())
            .map(|(pos, &v)| ConvergecastNode::new(pos, self.op, v, self.broadcast))
            .collect()
    }

    fn round(&self, st: &mut ConvergecastNode, ctx: &mut RoundCtx<'_, TreeMsg>) {
        if !st.pos.in_tree {
            return;
        }
        if !st.resolved {
            st.resolved = true;
            (st.parent_idx, st.children_idx) = ctx.tree_indices(st.pos.parent, &st.pos.children);
        }
        for &(from, ref msg) in ctx.inbox() {
            match msg {
                TreeMsg::Up(v) => {
                    debug_assert!(st.pos.children.contains(&from));
                    st.acc = st.op.apply(st.acc, *v);
                    st.pending -= 1;
                }
                TreeMsg::Down(v) => {
                    st.result = Some(*v);
                }
            }
        }
        if st.pending == 0 && !st.sent_up {
            st.sent_up = true;
            if st.pos.is_root {
                st.result = Some(st.acc);
            } else if let Some(pi) = st.parent_idx {
                ctx.send_nth(pi, TreeMsg::Up(st.acc));
            }
        }
        if st.broadcast && !st.sent_down {
            if let Some(r) = st.result {
                st.sent_down = true;
                for i in 0..st.children_idx.len() {
                    ctx.send_nth(st.children_idx[i], TreeMsg::Down(r));
                }
            }
        }
    }

    fn halted(&self, st: &ConvergecastNode) -> bool {
        if !st.pos.in_tree {
            return true;
        }
        st.sent_up && (!st.broadcast || st.sent_down)
    }

    fn wake(&self, _state: &ConvergecastNode) -> Wake {
        // Convergecast is purely mail-driven after round 0: a node acts
        // exactly when a child's Up (or the parent's Down) arrives, and
        // sends in the same invocation. Even a node still *waiting* for
        // children sleeps — it has nothing to do until mail comes — so
        // a deep tree's rounds cost O(frontier), not O(unfinished
        // subtree). Consequence for malformed trees (a claimed child
        // that never reports): the phase quiesces with `None` results
        // instead of spinning to the round limit, matching
        // [`MultiAggregate`](crate::MultiAggregate)'s no-result-not-a-
        // hang behavior.
        Wake::Sleep
    }

    fn finish(
        self,
        _graph: &Graph,
        nodes: Vec<ConvergecastNode>,
        stats: &RunStats,
    ) -> Self::Output {
        (nodes.into_iter().map(|s| s.result).collect(), stats.clone())
    }
}

/// Prefix numbering: every *marked* node learns its rank (0-based) in a
/// global depth-first order of the tree, and the root learns the total
/// count. Used by the paper's construction to number the `N` large
/// parts in `O(D)` rounds.
#[derive(Debug, Clone)]
pub struct PrefixNumberNode {
    pos: TreePosition,
    marked: bool,
    /// Subtree mark-counts per child, filled during convergecast (in
    /// `pos.children` order).
    child_counts: Vec<u64>,
    pending: usize,
    sent_up: bool,
    sent_down: bool,
    /// Neighbor indices of parent/children, resolved on the first round.
    parent_idx: Option<usize>,
    children_idx: Vec<usize>,
    resolved: bool,
    /// This node's rank among marked nodes (only when marked).
    pub rank: Option<u64>,
    /// Total number of marked nodes (root only, after convergecast).
    pub total: Option<u64>,
    offset: Option<u64>,
}

impl PrefixNumberNode {
    /// Creates the state for one node.
    pub(crate) fn new(pos: TreePosition, marked: bool) -> Self {
        let pending = pos.children.len();
        let child_counts = vec![0; pos.children.len()];
        PrefixNumberNode {
            pos,
            marked,
            child_counts,
            pending,
            sent_up: false,
            sent_down: false,
            parent_idx: None,
            children_idx: Vec::new(),
            resolved: false,
            rank: None,
            total: None,
            offset: None,
        }
    }

    fn subtree_count(&self) -> u64 {
        self.child_counts.iter().sum::<u64>() + u64::from(self.marked)
    }
}

/// Prefix numbering of marked nodes as a composable [`Protocol`] (the
/// paper's `O(D)`-round dense ranking of the large parts). Output is
/// `(per-node ranks, total marked, phase stats)`.
#[derive(Debug, Clone)]
pub struct PrefixNumber {
    positions: Vec<TreePosition>,
    marked: Vec<bool>,
    /// Root node index, resolved in `init` for `finish`.
    root: Option<usize>,
}

impl PrefixNumber {
    /// Prefix numbering of `marked` nodes over the tree described by
    /// `positions`.
    pub fn new(positions: Vec<TreePosition>, marked: &[bool]) -> Self {
        PrefixNumber {
            positions,
            marked: marked.to_vec(),
            root: None,
        }
    }
}

impl Protocol for PrefixNumber {
    type Msg = TreeMsg;
    type State = PrefixNumberNode;
    type Output = (Vec<Option<u64>>, u64, RunStats);

    fn label(&self) -> &str {
        "prefix_number"
    }

    fn init(&mut self, graph: &Graph) -> Vec<PrefixNumberNode> {
        assert_eq!(self.positions.len(), graph.n());
        assert_eq!(self.marked.len(), graph.n());
        self.root = self.positions.iter().position(|p| p.is_root);
        std::mem::take(&mut self.positions)
            .into_iter()
            .zip(self.marked.iter())
            .map(|(pos, &m)| PrefixNumberNode::new(pos, m))
            .collect()
    }

    fn round(&self, st: &mut PrefixNumberNode, ctx: &mut RoundCtx<'_, TreeMsg>) {
        if !st.pos.in_tree {
            return;
        }
        if !st.resolved {
            st.resolved = true;
            (st.parent_idx, st.children_idx) = ctx.tree_indices(st.pos.parent, &st.pos.children);
        }
        for &(from, ref msg) in ctx.inbox() {
            match msg {
                TreeMsg::Up(v) => {
                    let idx = st
                        .pos
                        .children
                        .iter()
                        .position(|&c| c == from)
                        .expect("Up message only from children");
                    st.child_counts[idx] = *v;
                    st.pending -= 1;
                }
                TreeMsg::Down(v) => {
                    st.offset = Some(*v);
                }
            }
        }
        if st.pending == 0 && !st.sent_up {
            st.sent_up = true;
            if st.pos.is_root {
                st.total = Some(st.subtree_count());
                st.offset = Some(0);
            } else if let Some(pi) = st.parent_idx {
                ctx.send_nth(pi, TreeMsg::Up(st.subtree_count()));
            }
        }
        if st.sent_up && !st.sent_down {
            if let Some(off) = st.offset {
                st.sent_down = true;
                if st.marked {
                    st.rank = Some(off);
                }
                let mut cursor = off + u64::from(st.marked);
                for idx in 0..st.children_idx.len() {
                    ctx.send_nth(st.children_idx[idx], TreeMsg::Down(cursor));
                    cursor += st.child_counts[idx];
                }
            }
        }
    }

    fn halted(&self, st: &PrefixNumberNode) -> bool {
        !st.pos.in_tree || st.sent_down
    }

    fn wake(&self, _state: &PrefixNumberNode) -> Wake {
        // Mail-driven exactly like [`TreeAggregate`]: count convergecast
        // up, offsets broadcast down, every send triggered by an
        // arrival (or round 0); waiting nodes sleep.
        Wake::Sleep
    }

    fn finish(
        self,
        _graph: &Graph,
        nodes: Vec<PrefixNumberNode>,
        stats: &RunStats,
    ) -> Self::Output {
        let total = self.root.and_then(|r| nodes[r].total).unwrap_or(0);
        (
            nodes.into_iter().map(|s| s.rank).collect(),
            total,
            stats.clone(),
        )
    }
}

/// Builds [`TreePosition`]s from parallel parent/children arrays (such as
/// a [`crate::bfs::DistBfsOutcome`]). Nodes with no parent and no
/// children that are not the root are marked out-of-tree.
pub fn positions_from_tree(
    root: NodeId,
    parent: &[Option<NodeId>],
    children: &[Vec<NodeId>],
) -> Vec<TreePosition> {
    parent
        .iter()
        .zip(children.iter())
        .enumerate()
        .map(|(v, (&p, ch))| {
            let is_root = v as NodeId == root;
            TreePosition {
                parent: p,
                children: ch.clone(),
                in_tree: is_root || p.is_some(),
                is_root,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::session::Session;
    use crate::sim::SimConfig;
    use crate::SimError;

    fn tree_fixture(n: usize, seed: u64) -> (Graph, Vec<TreePosition>) {
        let g = lcs_graph::generators::gnp_connected(
            n,
            0.08,
            &mut <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed),
        );
        let bfs = Session::new(&g, SimConfig::default())
            .run(Bfs::new(0))
            .unwrap();
        let pos = positions_from_tree(0, &bfs.parent, &bfs.children);
        (g, pos)
    }

    fn aggregate(
        g: &Graph,
        pos: Vec<TreePosition>,
        values: &[u64],
        op: AggOp,
        broadcast: bool,
    ) -> Result<(Vec<Option<u64>>, RunStats), SimError> {
        Session::new(g, SimConfig::default()).run(TreeAggregate::new(pos, values, op, broadcast))
    }

    fn number(
        g: &Graph,
        pos: Vec<TreePosition>,
        marked: &[bool],
    ) -> (Vec<Option<u64>>, u64, RunStats) {
        Session::new(g, SimConfig::default())
            .run(PrefixNumber::new(pos, marked))
            .unwrap()
    }

    #[test]
    fn sum_convergecast_counts_nodes() {
        let (g, pos) = tree_fixture(30, 5);
        let values = vec![1u64; g.n()];
        let (results, stats) = aggregate(&g, pos, &values, AggOp::Sum, false).unwrap();
        assert_eq!(results[0], Some(30));
        assert!(stats.rounds < 40);
    }

    #[test]
    fn min_convergecast_with_broadcast_informs_everyone() {
        let (g, pos) = tree_fixture(25, 6);
        let mut values: Vec<u64> = (0..g.n() as u64).map(|v| 100 + v).collect();
        values[17] = 3;
        let (results, _) = aggregate(&g, pos, &values, AggOp::Min, true).unwrap();
        for v in g.nodes() {
            assert_eq!(results[v as usize], Some(3), "node {v}");
        }
    }

    #[test]
    fn max_convergecast() {
        let (g, pos) = tree_fixture(20, 7);
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let (results, _) = aggregate(&g, pos, &values, AggOp::Max, false).unwrap();
        assert_eq!(results[0], Some(19));
    }

    #[test]
    fn prefix_numbering_assigns_distinct_dense_ranks() {
        let (g, pos) = tree_fixture(40, 8);
        let marked: Vec<bool> = (0..g.n()).map(|v| v % 3 == 0).collect();
        let (ranks, total, _) = number(&g, pos, &marked);
        let expected: u64 = marked.iter().filter(|&&m| m).count() as u64;
        assert_eq!(total, expected);
        let mut seen: Vec<u64> = ranks.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..expected).collect::<Vec<_>>());
        for (v, r) in ranks.iter().enumerate() {
            assert_eq!(r.is_some(), marked[v]);
        }
    }

    #[test]
    fn prefix_numbering_none_marked() {
        let (g, pos) = tree_fixture(10, 9);
        let marked = vec![false; g.n()];
        let (ranks, total, _) = number(&g, pos, &marked);
        assert_eq!(total, 0);
        assert!(ranks.iter().all(|r| r.is_none()));
    }

    #[test]
    fn malformed_tree_reports_invalid_destination() {
        // Path 0-1-2; the root claims non-neighbor 2 as a child. The
        // run must fail with the same error the old send-path produced,
        // not panic.
        let g = lcs_graph::generators::path(3);
        let mk = |children| TreePosition {
            parent: None,
            children,
            in_tree: true,
            is_root: false,
        };
        let pos = vec![
            TreePosition {
                parent: None,
                children: vec![2],
                in_tree: true,
                is_root: true,
            },
            mk(vec![]),
            mk(vec![]),
        ];
        let err = aggregate(&g, pos, &[1, 1, 1], AggOp::Sum, true).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidDestination { from: 0, to: 2, .. }),
            "{err:?}"
        );
    }

    /// The `Wake::Sleep` override of both tree protocols: a node
    /// waiting on a child that never reports sleeps instead of staying
    /// awake, so the phase quiesces with no result at the root within
    /// `depth + 2` rounds rather than spinning to the round limit (what
    /// a `halted`-derived wake would do: the waiting node never halts).
    #[test]
    fn silent_child_ends_the_phase_without_a_result_not_at_the_round_limit() {
        // Tree rooted at 0 with branches 0-1-2-3 and 0-4-5. Node 3 lists
        // its real neighbor 6 as a child, but 6 is outside the tree and
        // never reports, so 3, 2, 1 and the root wait forever.
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 6), (0, 4), (4, 5)]).unwrap();
        let at = |parent: Option<NodeId>, children: Vec<NodeId>| TreePosition {
            parent,
            children,
            in_tree: true,
            is_root: parent.is_none(),
        };
        let pos = vec![
            at(None, vec![1, 4]),
            at(Some(0), vec![2]),
            at(Some(1), vec![3]),
            at(Some(2), vec![6]),
            at(Some(0), vec![5]),
            at(Some(4), vec![]),
            TreePosition::default(),
        ];
        let depth = 4; // root to the silent child
        let cfg = SimConfig {
            max_rounds: 1_000,
            ..SimConfig::default()
        };
        let (results, stats) = Session::new(&g, cfg.clone())
            .run(TreeAggregate::new(pos.clone(), &[1; 7], AggOp::Sum, true))
            .unwrap();
        assert_eq!(results[0], None, "the root cannot complete");
        assert!(results.iter().all(Option::is_none), "{results:?}");
        assert!(stats.rounds <= depth + 2, "rounds {}", stats.rounds);
        // The reporting branch still delivered its partial aggregate.
        assert_eq!(stats.messages, 2);

        let (ranks, total, stats) = Session::new(&g, cfg)
            .run(PrefixNumber::new(pos, &[true; 7]))
            .unwrap();
        assert_eq!(total, 0, "the root never learns the count");
        assert!(ranks.iter().all(Option::is_none), "{ranks:?}");
        assert!(stats.rounds <= depth + 2, "rounds {}", stats.rounds);
    }

    #[test]
    fn singleton_tree() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let pos = vec![TreePosition {
            parent: None,
            children: vec![],
            in_tree: true,
            is_root: true,
        }];
        let (results, _) = aggregate(&g, pos, &[42], AggOp::Sum, true).unwrap();
        assert_eq!(results[0], Some(42));
    }
}
