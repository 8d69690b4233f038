//! Scheduled parallel BFS: many BFS instances over (possibly
//! overlapping) subgraphs of the same network, multiplexed through
//! per-edge FIFO queues with randomly delayed start rounds.
//!
//! This is the executable form of the paper's use of the random-delay
//! scheduler (Theorem 2.1 / Ghaffari'15): the `N` truncated BFS trees of
//! the shortcut construction all grow concurrently; each edge forwards
//! one queued token per direction per round, so per-edge congestion
//! translates into queueing delay rather than a model violation. Random
//! start offsets (chosen by the caller from shared randomness) spread the
//! load so that, w.h.p., queues stay short.
//!
//! Instance subgraph membership is supplied as a [`Membership`] oracle
//! evaluated at the *sending* endpoint (`may a token of instance i
//! traverse u → v?`) — exactly the local knowledge nodes have after the
//! sampling step (each node knows which of its incident edges it
//! sampled into which `H_i`). The whole-graph case ([`Membership::All`])
//! is recognised statically so the fan-out hot loop skips the dynamic
//! predicate call entirely.
//!
//! **Distance semantics.** Tokens are forwarded as fast as queues allow
//! (the Leighton–Maggs–Richa packet view of the schedule) and a node
//! adopts the *first* token per instance. Under contention a token that
//! travelled a longer route can win the race, so recorded distances are
//! sound *upper bounds* on the instance-subgraph BFS distances — exact
//! in the contention-free case — and the spanning/depth guarantees the
//! construction needs are preserved by its `O(k_D log n)` depth budget.

use crate::message::Message;
use crate::node::RoundCtx;
use crate::protocol::Protocol;
use crate::stats::RunStats;
use lcs_graph::{Graph, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// One BFS instance of the bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiBfsInstance {
    /// Root node of this instance.
    pub root: NodeId,
    /// Round at which the root fires (the random delay).
    pub start_round: u64,
    /// Maximum BFS depth (tokens beyond this are not propagated).
    pub depth_limit: u32,
}

/// Symmetric membership predicate: is edge `{u, v}` part of instance
/// `i`'s subgraph? Implementations must answer identically for `(u, v)`
/// and `(v, u)`.
pub type MembershipFn = Arc<dyn Fn(NodeId, NodeId, u32) -> bool + Send + Sync>;

/// Edge-membership oracle of a multi-BFS bundle.
///
/// The common whole-graph case gets its own variant so the token
/// fan-out hot path pays a predictable enum branch instead of a dynamic
/// call per (token, neighbor) pair; arbitrary predicates use
/// [`Membership::Fn`] (or the [`Membership::func`] helper).
#[derive(Clone)]
pub enum Membership {
    /// Every edge belongs to every instance.
    All,
    /// Arbitrary symmetric predicate (see [`MembershipFn`]).
    Fn(MembershipFn),
}

impl Membership {
    /// Wraps a predicate closure (see [`MembershipFn`] for the
    /// symmetry requirement).
    pub fn func(f: impl Fn(NodeId, NodeId, u32) -> bool + Send + Sync + 'static) -> Self {
        Membership::Fn(Arc::new(f))
    }

    /// May a token of instance `inst` traverse the edge `u → v`?
    #[inline]
    pub fn allows(&self, u: NodeId, v: NodeId, inst: u32) -> bool {
        match self {
            Membership::All => true,
            Membership::Fn(f) => f(u, v, inst),
        }
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Membership::All => f.write_str("Membership::All"),
            Membership::Fn(_) => f.write_str("Membership::Fn(..)"),
        }
    }
}

/// Shared specification of a multi-BFS bundle.
#[derive(Clone)]
pub struct MultiBfsSpec {
    /// The instances; index = instance id.
    pub instances: Vec<MultiBfsInstance>,
    /// Edge membership oracle.
    pub membership: Membership,
    /// Per-neighbor queue capacity; tokens beyond it are dropped and the
    /// node records an overflow (0 = unbounded). Mirrors the paper's
    /// congestion enforcement: an overloaded guess produces incomplete
    /// trees, which the verification step then rejects.
    pub queue_cap: usize,
}

impl std::fmt::Debug for MultiBfsSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiBfsSpec")
            .field("instances", &self.instances.len())
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

/// Messages of the multi-BFS protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiBfsMsg {
    /// BFS token: "you are at distance `dist` in instance `inst`, whose
    /// root is `root`". Carrying the root id mirrors the paper, where
    /// "each edge `(u,v) ∈ H_i` learns the identity of `v_i` at the time
    /// at which the BFS token of `v_i` arrives" — receivers can relate
    /// instances to known node ids (e.g. their own part leader).
    Token {
        /// Instance id.
        inst: u32,
        /// Root node of the instance.
        root: NodeId,
        /// Receiver's distance.
        dist: u32,
    },
    /// Child acknowledgment in `inst`.
    Child {
        /// Instance id.
        inst: u32,
    },
}

impl Message for MultiBfsMsg {
    fn size_words(&self) -> u32 {
        match self {
            MultiBfsMsg::Token { .. } => 3,
            MultiBfsMsg::Child { .. } => 1,
        }
    }
}

/// How a node was reached in one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reached {
    /// BFS distance in the instance subgraph (0 for the root).
    pub dist: u32,
    /// Tree parent (None for the root).
    pub parent: Option<NodeId>,
    /// Round at which the node joined.
    pub round: u64,
    /// Root of the instance, as learned from the token.
    pub root: NodeId,
}

/// Per-node state of the multi-BFS protocol.
///
/// Instance ids are dense (`0..instances.len()`), so per-instance state
/// is kept in flat vectors — token arrival is an index, not a hash.
///
/// The layout is split by temperature. The fields below are everything
/// the common per-round paths touch — token rejection reads
/// `reached_lo`, acceptance appends to `accepted`, the direct send
/// path reads `sent_lo`/`queued` — and `repr(C)` pins them into the
/// struct's first 64 bytes, so a typical active round costs one cache
/// line of node state. Queue machinery, root lists and diagnostics
/// live behind the `MultiBfsCold` box and are only dereferenced on
/// the slow paths that need them.
#[derive(Debug)]
#[repr(C)]
pub struct MultiBfsNode {
    spec: Arc<MultiBfsSpec>,
    /// Reached bits for instances `0..64` (bit `i` mirrors "instance
    /// `i` reached this node"). Token rejection — the common case
    /// under contention — tests this word, which lives in the node
    /// struct the engine already touched, instead of a per-instance
    /// heap block.
    reached_lo: u64,
    /// Neighbors `0..64` already sent to this round via the direct
    /// path (bit = neighbor index). The first message bound for an
    /// idle neighbor goes straight to the wire — it *is* the FIFO
    /// front the drain would pick — skipping the queue round-trip
    /// entirely; later same-round messages queue behind it. Reset at
    /// the end of every round.
    sent_lo: u64,
    /// Total queued messages across all neighbors.
    queued: u32,
    /// Instances rooted here whose start has not fired yet.
    pending_roots: u32,
    /// Reach records in arrival order, as `(instance, info)` pairs;
    /// scattered into an instance-indexed table at `finish`. During
    /// the run this is append-only — each accepted token touches the
    /// hot tail of one contiguous buffer instead of a cold
    /// instance-indexed slot in a `k × 24`-byte-per-node table (10 MB
    /// of scattered write traffic for the benchmark bundle). The
    /// reached bitmaps answer all mid-run queries.
    accepted: Vec<(u32, Reached)>,
    /// Rarely-touched state (queue machinery, roots, diagnostics).
    cold: Box<MultiBfsCold>,
}

/// The cold half of [`MultiBfsNode`]: state the hot per-round paths
/// never touch, boxed so it does not dilute the node's hot cache line.
#[derive(Debug, Default)]
struct MultiBfsCold {
    /// Children discovered, as `(instance, child)` pairs in arrival
    /// order; distributed into per-instance sorted lists at `finish`.
    /// One flat vector per node beats a `Vec<Vec<NodeId>>` — a child
    /// ack appends to one contiguous buffer instead of chasing a
    /// per-instance pointer.
    children: Vec<(u32, NodeId)>,
    /// Per-neighbor outgoing FIFO queues (indexed in neighbor order).
    /// Allocated on first use: with the direct send path, a node whose
    /// traffic never collides skips the allocation entirely.
    queues: Vec<VecDeque<MultiBfsMsg>>,
    /// Neighbor indices with a non-empty queue (unordered). Lets the
    /// drain loop touch only neighbors with traffic instead of
    /// scanning every queue each round.
    busy: Vec<u32>,
    /// Instance ids rooted at this node.
    roots_here: Vec<u32>,
    /// Reached bits for instances `≥ 64`, one word per 64 instances
    /// (empty for bundles of at most 64 instances).
    reached_hi: Vec<u64>,
    /// Longest queue ever observed (scheduling-quality diagnostic).
    max_queue: usize,
    /// Whether any token was dropped due to `queue_cap`.
    overflowed: bool,
}

impl MultiBfsNode {
    /// Creates the state for one node; `roots_here` lists the instance
    /// ids whose root is this node.
    pub(crate) fn new(spec: Arc<MultiBfsSpec>, roots_here: Vec<u32>) -> Self {
        let k = spec.instances.len();
        let pending_roots = roots_here.len() as u32;
        MultiBfsNode {
            spec,
            reached_lo: 0,
            sent_lo: 0,
            queued: 0,
            pending_roots,
            accepted: Vec::new(),
            cold: Box::new(MultiBfsCold {
                reached_hi: vec![0; k.saturating_sub(64).div_ceil(64)],
                roots_here,
                ..MultiBfsCold::default()
            }),
        }
    }

    /// Longest per-neighbor queue ever observed at this node.
    pub fn max_queue(&self) -> usize {
        self.cold.max_queue
    }

    /// Whether this node dropped tokens due to `queue_cap`.
    pub fn overflowed(&self) -> bool {
        self.cold.overflowed
    }

    #[inline]
    fn is_reached(&self, inst: u32) -> bool {
        if inst < 64 {
            self.reached_lo >> inst & 1 != 0
        } else {
            self.cold.reached_hi[(inst as usize - 64) >> 6] >> (inst & 63) & 1 != 0
        }
    }

    #[inline]
    fn mark_reached(&mut self, inst: u32) {
        if inst < 64 {
            self.reached_lo |= 1 << inst;
        } else {
            self.cold.reached_hi[(inst as usize - 64) >> 6] |= 1 << (inst & 63);
        }
    }

    /// Sends `msg` to neighbor `idx` this round if its FIFO is empty
    /// and nothing was sent to it yet (the message *is* the front the
    /// drain would pick, so the wire effect is identical); otherwise
    /// queues it. Only the first 64 neighbors are eligible for the
    /// direct path — higher indices always queue and drain normally.
    ///
    /// `deg` is the node's degree, used to size the lazily-allocated
    /// queue table on first collision. `queued == 0` proves every
    /// queue is empty, so the common direct path never dereferences
    /// the cold box at all.
    #[inline]
    fn send_or_enqueue(
        &mut self,
        ctx: &mut RoundCtx<'_, MultiBfsMsg>,
        deg: usize,
        idx: usize,
        msg: MultiBfsMsg,
    ) {
        if idx < 64
            && self.sent_lo >> idx & 1 == 0
            && (self.queued == 0 || self.cold.queues[idx].is_empty())
        {
            self.sent_lo |= 1 << idx;
            ctx.send_nth(idx, msg);
            return;
        }
        self.enqueue(deg, idx, msg);
    }

    /// The queueing slow path of [`Self::send_or_enqueue`].
    fn enqueue(&mut self, deg: usize, idx: usize, msg: MultiBfsMsg) {
        let cap = self.spec.queue_cap;
        let cold = &mut *self.cold;
        if cold.queues.is_empty() {
            cold.queues.resize_with(deg, VecDeque::new);
        }
        let q = &mut cold.queues[idx];
        if cap > 0 && q.len() >= cap {
            cold.overflowed = true;
            return;
        }
        if q.is_empty() {
            cold.busy.push(idx as u32);
        }
        q.push_back(msg);
        self.queued += 1;
        cold.max_queue = cold.max_queue.max(q.len());
    }

    fn fan_out(
        &mut self,
        ctx: &mut RoundCtx<'_, MultiBfsMsg>,
        inst: u32,
        root: NodeId,
        dist: u32,
        skip: Option<NodeId>,
    ) {
        let me = ctx.node();
        let neighbors = ctx.neighbors();
        let limit = self.spec.instances[inst as usize].depth_limit;
        if dist >= limit {
            return;
        }
        let token = MultiBfsMsg::Token {
            inst,
            root,
            dist: dist + 1,
        };
        for (idx, &w) in neighbors.iter().enumerate() {
            if Some(w) == skip {
                continue;
            }
            if self.spec.membership.allows(me, w, inst) {
                self.send_or_enqueue(ctx, neighbors.len(), idx, token);
            }
        }
    }
}

/// Result of the [`MultiBfs`] protocol.
///
/// Instance ids are dense (`0..spec.instances.len()`), so per-node
/// per-instance data is stored in flat vectors indexed by instance id —
/// the node states are moved out verbatim, with no per-entry hashing.
#[derive(Debug)]
pub struct MultiBfsOutcome {
    /// Per-node reach info: `reached[v][inst]` is `Some` when instance
    /// `inst` reached node `v`.
    pub reached: Vec<Vec<Option<Reached>>>,
    /// Per-node children per instance (sorted): `children[v][inst]`.
    pub children: Vec<Vec<Vec<NodeId>>>,
    /// Longest per-neighbor queue observed anywhere.
    pub max_queue: usize,
    /// Whether any node dropped tokens (congestion-cap enforcement
    /// fired).
    pub overflowed: bool,
    /// Engine statistics.
    pub stats: crate::stats::RunStats,
}

impl MultiBfsOutcome {
    /// Nodes reached by instance `i`, with distances.
    pub fn instance_nodes(&self, inst: u32) -> Vec<(NodeId, Reached)> {
        self.reached
            .iter()
            .enumerate()
            .filter_map(|(v, m)| {
                m.get(inst as usize)
                    .copied()
                    .flatten()
                    .map(|r| (v as NodeId, r))
            })
            .collect()
    }

    /// Depth actually reached by instance `i` (0 for an unknown id).
    pub fn instance_depth(&self, inst: u32) -> u32 {
        self.reached
            .iter()
            .filter_map(|m| m.get(inst as usize).copied().flatten().map(|r| r.dist))
            .max()
            .unwrap_or(0)
    }
}

/// A bundle of scheduled BFS instances as a composable [`Protocol`]
/// (the executable form of the paper's random-delay scheduler): run it
/// through a [`Session`](crate::session::Session), alone or joined with other protocols.
#[derive(Debug, Clone)]
pub struct MultiBfs {
    spec: Arc<MultiBfsSpec>,
}

impl MultiBfs {
    /// A multi-BFS bundle over `spec`'s instances.
    pub fn new(spec: Arc<MultiBfsSpec>) -> Self {
        MultiBfs { spec }
    }
}

impl Protocol for MultiBfs {
    type Msg = MultiBfsMsg;
    type State = MultiBfsNode;
    type Output = MultiBfsOutcome;

    fn label(&self) -> &str {
        "multi_bfs"
    }

    fn init(&mut self, graph: &Graph) -> Vec<MultiBfsNode> {
        let mut roots_of: Vec<Vec<u32>> = vec![Vec::new(); graph.n()];
        for (i, inst) in self.spec.instances.iter().enumerate() {
            roots_of[inst.root as usize].push(i as u32);
        }
        roots_of
            .into_iter()
            .map(|r| MultiBfsNode::new(Arc::clone(&self.spec), r))
            .collect()
    }

    fn round(&self, st: &mut MultiBfsNode, ctx: &mut RoundCtx<'_, MultiBfsMsg>) {
        let me = ctx.node();
        let neighbors = ctx.neighbors();
        // Root activations scheduled for this round (indexed loop: no
        // per-round allocation; skipped entirely once every local root
        // has fired).
        if st.pending_roots > 0 {
            for r in 0..st.cold.roots_here.len() {
                let inst = st.cold.roots_here[r];
                if st.spec.instances[inst as usize].start_round != ctx.round()
                    || st.is_reached(inst)
                {
                    continue;
                }
                st.pending_roots -= 1;
                st.mark_reached(inst);
                st.accepted.push((
                    inst,
                    Reached {
                        dist: 0,
                        parent: None,
                        round: ctx.round(),
                        root: me,
                    },
                ));
                st.fan_out(ctx, inst, me, 0, None);
            }
        }
        // Process arrivals (no inbox copy — the slice outlives the ctx
        // borrow, so sends can interleave with iteration).
        let inbox = ctx.inbox();
        for &(from, ref msg) in inbox {
            match *msg {
                MultiBfsMsg::Token { inst, root, dist } => {
                    // Already-reached is by far the common rejection
                    // under contention: test the in-struct bit word
                    // before touching the shared spec or the reach
                    // records.
                    if st.is_reached(inst) || dist > st.spec.instances[inst as usize].depth_limit {
                        continue;
                    }
                    st.mark_reached(inst);
                    st.accepted.push((
                        inst,
                        Reached {
                            dist,
                            parent: Some(from),
                            round: ctx.round(),
                            root,
                        },
                    ));
                    let from_idx = ctx.neighbor_index(from).expect("sender is a neighbor");
                    st.send_or_enqueue(ctx, neighbors.len(), from_idx, MultiBfsMsg::Child { inst });
                    st.fan_out(ctx, inst, root, dist, Some(from));
                }
                MultiBfsMsg::Child { inst } => {
                    st.cold.children.push((inst, from));
                }
            }
        }
        // Drain the queued leftovers: one message per neighbor per
        // round, skipping neighbors the direct path already served.
        // Only busy neighbors are visited; the busy list is unordered,
        // but each send targets a distinct arc slot and the receiver
        // gathers in its own fixed arc order, so the iteration order
        // cannot affect outcomes. `queued == 0` skips the cold box
        // entirely — the common case with the direct path in play.
        if st.queued > 0 {
            let cold = &mut *st.cold;
            let mut i = 0;
            while i < cold.busy.len() {
                let idx = cold.busy[i] as usize;
                if idx < 64 && st.sent_lo >> idx & 1 != 0 {
                    // Sent to this neighbor directly this round; its
                    // queue waits for the next one.
                    i += 1;
                    continue;
                }
                let msg = cold.queues[idx]
                    .pop_front()
                    .expect("busy list tracks non-empty queues");
                st.queued -= 1;
                ctx.send_nth(idx, msg);
                if cold.queues[idx].is_empty() {
                    cold.busy.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        st.sent_lo = 0;
    }

    // The default halted-derived `wake` signal is exact: both kinds of
    // time-driven work that must keep a node awake without mail — a
    // root instance whose random start delay has not fired yet, and
    // queued tokens still draining at one per neighbor per round — are
    // captured by `halted`; everything else (token arrival, child
    // acks) is mail-driven and sleeps.
    fn halted(&self, st: &MultiBfsNode) -> bool {
        // A root with a pending delayed start must keep the run alive
        // even when no messages are in flight yet. Both counters are
        // maintained incrementally, so this is O(1) — it runs for every
        // node after every active round.
        st.pending_roots == 0 && st.queued == 0
    }

    fn finish(self, _graph: &Graph, nodes: Vec<MultiBfsNode>, stats: &RunStats) -> MultiBfsOutcome {
        let k = self.spec.instances.len();
        let max_queue = nodes.iter().map(|s| s.max_queue()).max().unwrap_or(0);
        let overflowed = nodes.iter().any(|s| s.overflowed());
        let mut reached = Vec::with_capacity(nodes.len());
        let mut children = Vec::with_capacity(nodes.len());
        for s in nodes {
            // Scatter the node's append-only reach log into the
            // instance-indexed table. Each instance appears at most
            // once (the reached bitmaps guard every push), so the
            // arrival order cannot matter.
            let mut m: Vec<Option<Reached>> = vec![None; k];
            for (inst, r) in s.accepted {
                m[inst as usize] = Some(r);
            }
            reached.push(m);
            // Distribute the node's flat (instance, child) log into
            // per-instance sorted lists; sorting erases the arrival
            // order, so the flat log yields the same output the old
            // per-instance accumulation did.
            let mut c: Vec<Vec<NodeId>> = vec![Vec::new(); k];
            for (inst, child) in s.cold.children {
                c[inst as usize].push(child);
            }
            for list in &mut c {
                list.sort_unstable();
            }
            children.push(c);
        }
        MultiBfsOutcome {
            reached,
            children,
            max_queue,
            overflowed,
            stats: stats.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::sim::SimConfig;
    use lcs_graph::bfs_distances;

    fn full_membership() -> Membership {
        Membership::All
    }

    /// All protocol tests go through the first-class `Session` API.
    fn run_bundle(g: &Graph, spec: Arc<MultiBfsSpec>) -> MultiBfsOutcome {
        Session::new(g, SimConfig::default())
            .run(MultiBfs::new(spec))
            .unwrap()
    }

    #[test]
    fn single_instance_matches_plain_bfs() {
        let g = lcs_graph::generators::grid(5, 5);
        let spec = Arc::new(MultiBfsSpec {
            instances: vec![MultiBfsInstance {
                root: 0,
                start_round: 0,
                depth_limit: 100,
            }],
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        let exact = bfs_distances(&g, 0);
        for v in g.nodes() {
            assert_eq!(
                out.reached[v as usize][0].map(|r| r.dist),
                Some(exact[v as usize]),
                "node {v}"
            );
        }
        assert!(!out.overflowed);
    }

    #[test]
    fn depth_limit_truncates() {
        let g = lcs_graph::generators::path(12);
        let spec = Arc::new(MultiBfsSpec {
            instances: vec![MultiBfsInstance {
                root: 0,
                start_round: 0,
                depth_limit: 4,
            }],
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        assert_eq!(out.instance_depth(0), 4);
        assert_eq!(out.instance_nodes(0).len(), 5);
        assert!(out.reached[5][0].is_none());
    }

    #[test]
    fn disjoint_instances_do_not_interact() {
        // Two paths sharing no edges, as instances over node-partitioned
        // membership.
        let g = lcs_graph::generators::path(10);
        let membership = Membership::func(|u, v, i| {
            if i == 0 {
                u < 5 && v < 5
            } else {
                u >= 5 && v >= 5
            }
        });
        let spec = Arc::new(MultiBfsSpec {
            instances: vec![
                MultiBfsInstance {
                    root: 0,
                    start_round: 0,
                    depth_limit: 100,
                },
                MultiBfsInstance {
                    root: 9,
                    start_round: 0,
                    depth_limit: 100,
                },
            ],
            membership,
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        assert_eq!(out.instance_nodes(0).len(), 5);
        assert_eq!(out.instance_nodes(1).len(), 5);
        assert_eq!(out.reached[4][0].unwrap().dist, 4);
        assert_eq!(out.reached[5][1].unwrap().dist, 4);
        assert!(out.reached[4][1].is_none());
    }

    #[test]
    fn many_overlapping_instances_queue_but_complete() {
        // A star: every instance floods through the hub; queues must
        // serialize the tokens, one per round.
        let g = lcs_graph::generators::star(20);
        let instances: Vec<MultiBfsInstance> = (1..=10)
            .map(|i| MultiBfsInstance {
                root: i as NodeId,
                start_round: 0, // all at once: maximal contention
                depth_limit: 4,
            })
            .collect();
        let spec = Arc::new(MultiBfsSpec {
            instances,
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        for i in 0..10u32 {
            assert_eq!(out.instance_nodes(i).len(), 20, "instance {i} spans");
        }
        assert!(out.max_queue >= 9, "hub must have queued");
        // Per-edge congestion: each of 10 instances crosses each edge at
        // most twice (token + child ack + fanout token).
        assert!(out.stats.max_edge_messages() <= 3 * 10);
    }

    #[test]
    fn random_delays_reduce_peak_queue() {
        let g = lcs_graph::generators::star(30);
        let mk = |delays: bool| {
            let instances: Vec<MultiBfsInstance> = (1..=15)
                .map(|i| MultiBfsInstance {
                    root: i as NodeId,
                    start_round: if delays { (i as u64 * 7) % 15 } else { 0 },
                    depth_limit: 3,
                })
                .collect();
            Arc::new(MultiBfsSpec {
                instances,
                membership: full_membership(),
                queue_cap: 0,
            })
        };
        let bunched = run_bundle(&g, mk(false));
        let spread = run_bundle(&g, mk(true));
        assert!(
            spread.max_queue < bunched.max_queue,
            "delays {} should beat bunched {}",
            spread.max_queue,
            bunched.max_queue
        );
    }

    #[test]
    fn queue_cap_drops_and_flags() {
        let g = lcs_graph::generators::star(12);
        let instances: Vec<MultiBfsInstance> = (1..=8)
            .map(|i| MultiBfsInstance {
                root: i as NodeId,
                start_round: 0,
                depth_limit: 4,
            })
            .collect();
        let spec = Arc::new(MultiBfsSpec {
            instances,
            membership: full_membership(),
            queue_cap: 2,
        });
        let out = run_bundle(&g, spec);
        assert!(out.overflowed);
        // Some instance failed to span.
        let spanned = (0..8u32)
            .filter(|&i| out.instance_nodes(i).len() == 12)
            .count();
        assert!(spanned < 8);
    }

    #[test]
    fn children_acks_match_parents() {
        let g = lcs_graph::generators::grid(4, 4);
        let spec = Arc::new(MultiBfsSpec {
            instances: vec![MultiBfsInstance {
                root: 5,
                start_round: 2,
                depth_limit: 50,
            }],
            membership: full_membership(),
            queue_cap: 0,
        });
        let out = run_bundle(&g, spec);
        for v in g.nodes() {
            if let Some(r) = out.reached[v as usize][0] {
                if let Some(p) = r.parent {
                    assert!(out.children[p as usize][0].contains(&v));
                }
            }
        }
    }
}
