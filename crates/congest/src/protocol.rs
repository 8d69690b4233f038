//! The [`Protocol`] trait — a whole-network CONGEST protocol as a
//! first-class, composable value — and the [`Join`] combinator that
//! runs two protocols **concurrently in shared rounds**.
//!
//! # Why a protocol trait
//!
//! Low-congestion shortcuts exist precisely so that many part-wise
//! computations can run *concurrently* in shared CONGEST rounds
//! (Ghaffari–Haeupler SODA'16; Kogan–Parter PODC 2021). [`Protocol`]
//! is the one way to write a node program. It packages the full
//! lifecycle — building per-node states ([`Protocol::init`]), executing
//! rounds ([`Protocol::round`], with quiescence declared via
//! [`Protocol::halted`] / [`Protocol::wake`]), and extracting a typed
//! result ([`Protocol::finish`]) — so protocols can be handed to a
//! [`Session`](crate::Session) and composed:
//!
//! * **sequentially** — `session.run(p1)?` then `session.run(p2)?`
//!   share one engine (worker pool, reverse-arc tables) and accumulate
//!   into one cumulative [`RunStats`] with a per-phase breakdown;
//! * **concurrently** — `session.join(p1, p2)?` runs both protocols in
//!   the *same* rounds, multiplexing the per-edge bandwidth through an
//!   internally tagged wire message ([`JoinMsg`]) with round-robin
//!   arbitration, so `k` part-wise aggregations genuinely share rounds
//!   as the paper assumes ([`Join`] nests: `join(p1, join(p2, p3))`).
//!
//! # Writing a protocol
//!
//! A [`Protocol`] value owns the protocol's *global* inputs (roots,
//! tree positions, instance specs); its [`Protocol::State`] holds one
//! node's local state. `round` takes `&self` — shared, immutable
//! protocol-wide data — plus `&mut State`, which is exactly the split
//! that lets the engine execute node shards on parallel workers while
//! the protocol value is shared read-only.
//!
//! ```
//! use lcs_congest::{Message, Protocol, RoundCtx, RunStats, Session, SimConfig};
//! use lcs_graph::Graph;
//!
//! /// Every node learns the maximum node id by gossip flooding.
//! struct MaxGossip;
//!
//! #[derive(Clone)]
//! struct MaxState {
//!     best: u32,
//!     announced: u32,
//! }
//!
//! impl Protocol for MaxGossip {
//!     type Msg = u32;
//!     type State = MaxState;
//!     type Output = Vec<u32>;
//!
//!     fn label(&self) -> &str {
//!         "max_gossip"
//!     }
//!     fn init(&mut self, graph: &Graph) -> Vec<MaxState> {
//!         (0..graph.n() as u32)
//!             .map(|v| MaxState { best: v, announced: u32::MAX })
//!             .collect()
//!     }
//!     fn round(&self, st: &mut MaxState, ctx: &mut RoundCtx<'_, u32>) {
//!         for &(_, m) in ctx.inbox() {
//!             st.best = st.best.max(m);
//!         }
//!         if st.announced != st.best {
//!             st.announced = st.best;
//!             for i in 0..ctx.degree() {
//!                 ctx.send_nth(i, st.best);
//!             }
//!         }
//!     }
//!     fn halted(&self, st: &MaxState) -> bool {
//!         st.announced == st.best
//!     }
//!     fn finish(self, _: &Graph, states: Vec<MaxState>, _: &RunStats) -> Vec<u32> {
//!         states.into_iter().map(|s| s.best).collect()
//!     }
//! }
//!
//! let g = lcs_graph::generators::path(5);
//! let mut session = Session::new(&g, SimConfig::default());
//! let maxima = session.run(MaxGossip).unwrap();
//! assert_eq!(maxima, vec![4; 5]);
//! ```

use crate::message::Message;
use crate::node::{RoundCtx, TxState, Wake};
use crate::stats::RunStats;
use lcs_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// A whole-network CONGEST protocol: per-node state construction, round
/// execution, and typed result extraction, as one composable value.
///
/// See the [module docs](self) for the design rationale and an example.
/// Run protocols through a [`Session`](crate::Session) — sequentially
/// ([`Session::run`](crate::Session::run)) or concurrently
/// ([`Session::join`](crate::Session::join)).
///
/// # The quiescence contract
///
/// The engine is **event-driven** (see [`Wake`]): a node's
/// [`Protocol::round`] hook runs only at round 0, on rounds where the
/// node has incoming mail, and on rounds following a [`Wake::Stay`]
/// request from [`Protocol::wake`]. A sleeping node's hook is *not*
/// polled — so a node whose `wake` answers [`Wake::Sleep`] promises
/// that invoking its hook with an empty inbox would have been a no-op
/// (no state change, no sends, no RNG draws).
///
/// ## Migrating from the `halted` scan
///
/// Older protocols only implemented [`Protocol::halted`], under an
/// engine that invoked every node every round. [`Protocol::wake`]
/// defaults to deriving the signal from `halted` (halted ⇒ sleep), so
/// such protocols keep working unchanged **iff** they already satisfied
/// the no-op promise above — which the termination rule (run ends when
/// all nodes are halted with nothing in flight) effectively required.
/// A protocol whose halted nodes still did time-driven work (e.g.
/// waiting for a specific round number without traffic) must override
/// `wake` to return [`Wake::Stay`] until that work is done; sleeping
/// would skip it.
pub trait Protocol: Sized {
    /// The message type exchanged on the wire.
    type Msg: Message + Send + Sync;
    /// One node's local state.
    type State: Send;
    /// The protocol's result, extracted by [`Protocol::finish`].
    type Output;

    /// A short label for per-phase statistics
    /// ([`RunStats::label`]); defaults to `"protocol"`.
    fn label(&self) -> &str {
        "protocol"
    }

    /// Builds the per-node states, one per node of `graph`, in node-id
    /// order. Called exactly once, before round 0.
    fn init(&mut self, graph: &Graph) -> Vec<Self::State>;

    /// Executes one synchronous round for `state`'s node. At round 0
    /// the inbox is empty; from round `r ≥ 1` the inbox holds exactly
    /// the messages sent to this node at round `r − 1`. Takes `&self`
    /// so protocol-wide data is shared read-only across the engine's
    /// worker shards. Invoked only while the node is active (see the
    /// [quiescence contract](Protocol#the-quiescence-contract)).
    fn round(&self, state: &mut Self::State, ctx: &mut RoundCtx<'_, Self::Msg>);

    /// Whether `state`'s node has (tentatively) finished. The run ends
    /// when every node is quiescent **and** no messages are in flight;
    /// a quiescent node is re-activated (and may un-halt) when messages
    /// arrive.
    fn halted(&self, state: &Self::State) -> bool;

    /// The quiescence contract: asked after each executed round whether
    /// the node must run again next round even without mail
    /// ([`Wake::Stay`]) or may sleep until a message arrives
    /// ([`Wake::Sleep`]). Defaults to deriving the signal from
    /// [`Protocol::halted`]; see the
    /// [migration notes](Protocol#migrating-from-the-halted-scan) for
    /// when an override is required.
    fn wake(&self, state: &Self::State) -> Wake {
        if self.halted(state) {
            Wake::Sleep
        } else {
            Wake::Stay
        }
    }

    /// Consumes the final per-node states into the protocol's output.
    /// `stats` is this phase's statistics (protocols that report
    /// engine costs clone what they need); under [`Join`] both sides
    /// receive the statistics of the *shared* phase.
    fn finish(self, graph: &Graph, states: Vec<Self::State>, stats: &RunStats) -> Self::Output;
}

/// Tagged wire message of a [`Join`] run: which side of the join the
/// payload belongs to. The one-bit side tag is absorbed into the word
/// constant (like the variant tags of the built-in protocol messages),
/// so a joined run's bandwidth accounting matches the standalone runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinMsg<A, B> {
    /// A message of the join's first protocol.
    A(A),
    /// A message of the join's second protocol.
    B(B),
}

impl<A: Message, B: Message> Message for JoinMsg<A, B> {
    fn size_words(&self) -> u32 {
        match self {
            JoinMsg::A(m) => m.size_words(),
            JoinMsg::B(m) => m.size_words(),
        }
    }
}

/// Per-node state of a [`Join`]: both sides' states plus the per-side,
/// per-neighbor FIFO queues that multiplex the shared bandwidth, and
/// reusable capture scratch (see [`Join`]'s docs for the mechanism).
pub struct JoinState<P1: Protocol, P2: Protocol> {
    a: P1::State,
    b: P2::State,
    /// Pending outbound messages per neighbor, first protocol.
    qa: Vec<VecDeque<P1::Msg>>,
    /// Pending outbound messages per neighbor, second protocol.
    qb: Vec<VecDeque<P2::Msg>>,
    /// Untagged inbox views handed to the sub-protocols.
    inbox_a: Vec<(NodeId, P1::Msg)>,
    inbox_b: Vec<(NodeId, P2::Msg)>,
    /// Capture mailboxes: the sub-protocols' sends land here (one flat
    /// slot per neighbor, occupancy tracked in `occ_*`, mirroring the
    /// engine's wire mailboxes) and are moved into the queues.
    slots_a: Vec<std::mem::MaybeUninit<P1::Msg>>,
    slots_b: Vec<std::mem::MaybeUninit<P2::Msg>>,
    occ_a: Vec<bool>,
    occ_b: Vec<bool>,
    /// Scratch sinks for the capture contexts (indices of written
    /// slots; per-arc counters). Real statistics are recorded when the
    /// queued message is actually sent.
    dirty: Vec<u32>,
    per_arc: Vec<u32>,
    /// Total queued messages across both sides (kept in sync by the
    /// capture and drain paths so `halted` is O(1), not a per-round
    /// scan of every per-neighbor queue).
    pending: usize,
    initialized: bool,
}

/// Runs two protocols **concurrently in shared rounds**, multiplexing
/// the per-edge CONGEST bandwidth between them.
///
/// Each round, every node (1) splits its inbox by side tag, (2) runs
/// both sub-protocols' `round` hooks against *capture* contexts whose
/// sends land in per-neighbor queues instead of the wire, then
/// (3) drains at most one queued message per neighbor onto the wire,
/// tagged with its side ([`JoinMsg`]). Contention for a neighbor slot
/// is arbitrated **round-robin**: even rounds prefer the first
/// protocol's queue, odd rounds the second's, so neither side can
/// starve the other. Congestion between the two protocols therefore
/// turns into queueing delay — exactly the random-delay-scheduler view
/// of the paper — and the joint run typically finishes in
/// `≈ max(r1, r2)` rounds rather than `r1 + r2`.
///
/// The two sides share each node's RNG stream (the first protocol
/// draws before the second within a round) and the phase's
/// [`RunStats`]; [`Protocol::finish`] of both sides receives the joint
/// statistics. `Join` itself implements [`Protocol`], so joins nest:
/// `Join::new(p1, Join::new(p2, p3))` shares rounds three ways.
///
/// Construct via [`Session::join`](crate::Session::join) (or
/// [`Join::new`] for nesting).
pub struct Join<P1: Protocol, P2: Protocol> {
    a: P1,
    b: P2,
    label: String,
}

impl<P1: Protocol, P2: Protocol> Join<P1, P2> {
    /// Composes two protocols for concurrent execution.
    pub fn new(a: P1, b: P2) -> Self {
        let label = format!("{}+{}", a.label(), b.label());
        Join { a, b, label }
    }
}

impl<P1: Protocol, P2: Protocol> Protocol for Join<P1, P2> {
    type Msg = JoinMsg<P1::Msg, P2::Msg>;
    type State = JoinState<P1, P2>;
    type Output = (P1::Output, P2::Output);

    fn label(&self) -> &str {
        &self.label
    }

    fn init(&mut self, graph: &Graph) -> Vec<Self::State> {
        let a = self.a.init(graph);
        let b = self.b.init(graph);
        assert_eq!(a.len(), b.len(), "joined protocols must agree on n");
        a.into_iter()
            .zip(b)
            .map(|(a, b)| JoinState {
                a,
                b,
                qa: Vec::new(),
                qb: Vec::new(),
                inbox_a: Vec::new(),
                inbox_b: Vec::new(),
                slots_a: Vec::new(),
                slots_b: Vec::new(),
                occ_a: Vec::new(),
                occ_b: Vec::new(),
                dirty: Vec::new(),
                per_arc: Vec::new(),
                pending: 0,
                initialized: false,
            })
            .collect()
    }

    fn round(&self, st: &mut Self::State, ctx: &mut RoundCtx<'_, Self::Msg>) {
        let degree = ctx.degree();
        if !st.initialized {
            st.initialized = true;
            st.qa = (0..degree).map(|_| VecDeque::new()).collect();
            st.qb = (0..degree).map(|_| VecDeque::new()).collect();
            st.slots_a = (0..degree)
                .map(|_| std::mem::MaybeUninit::uninit())
                .collect();
            st.slots_b = (0..degree)
                .map(|_| std::mem::MaybeUninit::uninit())
                .collect();
            st.occ_a = vec![false; degree];
            st.occ_b = vec![false; degree];
            st.per_arc = vec![0; degree];
        }
        // 1. Split the tagged inbox into per-side untagged views.
        st.inbox_a.clear();
        st.inbox_b.clear();
        for &(from, ref msg) in ctx.inbox() {
            match msg {
                JoinMsg::A(m) => st.inbox_a.push((from, m.clone())),
                JoinMsg::B(m) => st.inbox_b.push((from, m.clone())),
            }
        }
        // 2. Run each side against a capture context (sends land in
        //    `slots_*`, then move into the queues) — but only when that
        //    side has traffic or asked to stay awake: the join extends
        //    the engine's event-driven scheduling *through* itself, so
        //    a quiescent side costs nothing even while the other side
        //    keeps the node active. Skipping is outcome-neutral by the
        //    quiescence contract (a sleeping side's hook would have
        //    been a no-op, drawing no RNG), which also preserves the
        //    documented RNG order: A draws before B within a round.
        let run_a = ctx.round() == 0 || !st.inbox_a.is_empty() || self.a.wake(&st.a) == Wake::Stay;
        if run_a
            && run_captured(
                &self.a,
                &mut st.a,
                &st.inbox_a,
                &mut st.slots_a,
                &mut st.occ_a,
                &mut st.qa,
                &mut st.dirty,
                &mut st.per_arc,
                &mut st.pending,
                ctx,
            )
        {
            return; // violation recorded; the run is aborting
        }
        let run_b = ctx.round() == 0 || !st.inbox_b.is_empty() || self.b.wake(&st.b) == Wake::Stay;
        if run_b
            && run_captured(
                &self.b,
                &mut st.b,
                &st.inbox_b,
                &mut st.slots_b,
                &mut st.occ_b,
                &mut st.qb,
                &mut st.dirty,
                &mut st.per_arc,
                &mut st.pending,
                ctx,
            )
        {
            return;
        }
        // 3. Drain at most one message per neighbor, round-robin: even
        //    rounds prefer side A, odd rounds side B.
        let prefer_b = ctx.round() % 2 == 1;
        for i in 0..degree {
            let msg = if prefer_b {
                st.qb[i]
                    .pop_front()
                    .map(JoinMsg::B)
                    .or_else(|| st.qa[i].pop_front().map(JoinMsg::A))
            } else {
                st.qa[i]
                    .pop_front()
                    .map(JoinMsg::A)
                    .or_else(|| st.qb[i].pop_front().map(JoinMsg::B))
            };
            if let Some(m) = msg {
                st.pending -= 1;
                ctx.send_nth(i, m);
            }
        }
    }

    fn halted(&self, st: &Self::State) -> bool {
        st.pending == 0 && self.a.halted(&st.a) && self.b.halted(&st.b)
    }

    fn wake(&self, st: &Self::State) -> Wake {
        // The joined node stays awake while either side does (a side
        // with time-driven work must keep running even without mail) or
        // while queued messages remain to drain.
        if st.pending > 0 || self.a.wake(&st.a) == Wake::Stay || self.b.wake(&st.b) == Wake::Stay {
            Wake::Stay
        } else {
            Wake::Sleep
        }
    }

    fn finish(self, graph: &Graph, states: Vec<Self::State>, stats: &RunStats) -> Self::Output {
        let mut sa = Vec::with_capacity(states.len());
        let mut sb = Vec::with_capacity(states.len());
        for s in states {
            sa.push(s.a);
            sb.push(s.b);
        }
        (
            self.a.finish(graph, sa, stats),
            self.b.finish(graph, sb, stats),
        )
    }
}

/// Runs one side's round hook against a capture context: its sends are
/// written into `slots` (one per neighbor, enforcing the one-message
/// discipline *per side per round* at capture time) and then moved
/// into the side's per-neighbor queues. Returns `true` when the side
/// committed a model violation (recorded into the real context; the
/// engine aborts the run at the end of the round).
#[allow(clippy::too_many_arguments)]
fn run_captured<P: Protocol, W: Message>(
    proto: &P,
    state: &mut P::State,
    inbox: &[(NodeId, P::Msg)],
    slots: &mut [std::mem::MaybeUninit<P::Msg>],
    occ: &mut [bool],
    queues: &mut [VecDeque<P::Msg>],
    dirty: &mut Vec<u32>,
    per_arc: &mut [u32],
    pending: &mut usize,
    ctx: &mut RoundCtx<'_, W>,
) -> bool {
    let mut violation = None;
    let (mut messages, mut words) = (0u64, 0u64);
    {
        let mut capture = RoundCtx {
            node: ctx.node,
            round: ctx.round,
            graph: ctx.graph,
            inbox,
            rng: &mut *ctx.rng,
            shared: ctx.shared,
            tx: TxState {
                slots,
                occ,
                heads: ctx.tx.heads,
                arc_base: 0,
                // No wire effects: a captured send is queued, not sent.
                // Mail flags and receiver activation happen when the
                // drain step really sends it (via the outer context),
                // so the engine's active sets see exactly the wire
                // traffic at any shard count.
                wire: None,
                dirty,
                messages: &mut messages,
                words: &mut words,
                per_arc,
                violation: &mut violation,
                bandwidth: ctx.tx.bandwidth,
            },
        };
        proto.round(state, &mut capture);
    }
    // Move captured sends into the queues (dirty holds neighbor
    // indices, since the capture context's arc base is 0). A dirty
    // entry's occupancy byte is always set — sends are the only writer
    // and the overflow check rules out duplicates — so every listed
    // slot holds a live payload to move out.
    for &i in dirty.iter() {
        let i = i as usize;
        debug_assert!(occ[i]);
        occ[i] = false;
        // SAFETY: `occ[i]` was set by a captured send, so `slots[i]`
        // holds an initialized message; clearing the byte first makes
        // the move-out unique.
        let m = unsafe { slots[i].assume_init_read() };
        queues[i].push_back(m);
        *pending += 1;
    }
    dirty.clear();
    if let Some(v) = violation {
        if ctx.tx.violation.is_none() {
            *ctx.tx.violation = Some(v);
        }
        return true;
    }
    false
}
