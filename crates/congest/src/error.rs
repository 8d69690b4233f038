//! Simulator error types.

use lcs_graph::NodeId;
use std::fmt;

/// A violation of the CONGEST model or of run limits, detected by the
/// simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A node addressed a non-neighbor.
    InvalidDestination {
        /// Sender.
        from: NodeId,
        /// Intended recipient (not adjacent to `from`).
        to: NodeId,
        /// Round at which the send was attempted.
        round: u64,
    },
    /// A node sent two messages over the same edge direction in one
    /// round.
    ChannelOverflow {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Round of the violation.
        round: u64,
    },
    /// A message exceeded the bandwidth cap.
    MessageTooLarge {
        /// Declared message size in words.
        words: u32,
        /// Configured cap in words.
        cap: u32,
        /// Round of the violation.
        round: u64,
    },
    /// The run did not quiesce within the configured round limit.
    RoundLimitExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// The [`FaultPlan`](crate::FaultPlan) attached to the
    /// configuration is inconsistent (rate outside `[0, 1]`, delay
    /// bound at or past the round limit, crash scheduled beyond the
    /// round budget, …). Detected **eagerly**, at
    /// [`Session`](crate::Session) phase dispatch, before any round
    /// executes.
    FaultConfig {
        /// What is wrong and how to fix it.
        reason: String,
    },
    /// A [`Reliable`](crate::Reliable) node observed inner-protocol
    /// traffic after its quiet-wave stop: the bound passed to
    /// [`Reliable::with_quiet_bound`](crate::Reliable::with_quiet_bound)
    /// underestimates the network diameter, so the early termination it
    /// licensed would have silently produced wrong output. Raise the
    /// bound (or drop it and let the default full-quiescence rule run).
    QuietBoundViolated {
        /// The node that saw post-stop data.
        node: NodeId,
        /// Transport round of the detection.
        round: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidDestination { from, to, round } => {
                write!(f, "round {round}: node {from} sent to non-neighbor {to}")
            }
            SimError::ChannelOverflow { from, to, round } => {
                write!(
                    f,
                    "round {round}: node {from} sent two messages to {to} in one round"
                )
            }
            SimError::MessageTooLarge { words, cap, round } => {
                write!(
                    f,
                    "round {round}: message of {words} words exceeds bandwidth of {cap} words"
                )
            }
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "run did not terminate within {limit} rounds")
            }
            SimError::FaultConfig { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            SimError::QuietBoundViolated { node, round } => {
                write!(
                    f,
                    "round {round}: node {node} observed inner traffic after its quiet-wave \
                     stop — the Reliable::with_quiet_bound bound underestimates the diameter; \
                     raise it"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}
