//! # csm-network
//!
//! Node identity and message authentication for the paper's failure model
//! (§2.1): *authenticated Byzantine faults*. Nodes may deviate
//! arbitrarily, but all messages are signed, so impersonation is
//! detectable. Signatures are simulated by a keyed MAC with a key registry
//! ([`auth`]). The protocols only use the *unforgeability abstraction*,
//! which the registry provides exactly.
//!
//! The consensus state machines, the transport frame codec and the node
//! runtime all sign and verify through this crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod auth;

/// Identifier of a compute node, in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}
