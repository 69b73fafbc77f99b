//! Typed errors for the engine's network layer.
//!
//! Routing and fabric lookups report failures as values instead of panicking,
//! so a sweep over many topologies and flow sets can skip an infeasible case
//! and keep going.

/// Errors produced by [`Fabric`](crate::Fabric) lookups and
/// [`Router`](crate::Router) implementations.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A node index was outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The fabric's node count.
        num_nodes: usize,
    },
    /// No path exists between the two nodes (disconnected fabric).
    Unreachable {
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
    },
    /// A torus-specific router was asked to route on a fabric that was not
    /// built with [`Fabric::from_torus`](crate::Fabric::from_torus).
    NotATorus,
    /// A torus hop was requested along a dimension of length 1, which has no
    /// channels.
    DegenerateDimension {
        /// The dimension index.
        dim: usize,
    },
    /// A torus hop direction other than `+1` or `-1` was requested.
    InvalidDirection {
        /// The offending direction.
        direction: i8,
    },
    /// A [`FabricPatch`](crate::FabricPatch) was malformed: a non-positive
    /// or non-finite capacity scale, a self-link, or a link between nodes
    /// that share no channel.
    InvalidPatch {
        /// What was wrong with the patch.
        message: String,
    },
    /// A fabric constructor was asked for more nodes or channels than the
    /// compact `u32` id space can address. Checked *before* any per-entity
    /// allocation, so a `2^33`-node request fails typed instead of silently
    /// truncating ids (or OOMing while trying).
    IdSpaceExceeded {
        /// What overflowed: `"nodes"` or `"channels"`.
        entity: String,
        /// The requested count.
        count: u64,
        /// The id-space limit (`u32::MAX`).
        limit: u64,
    },
    /// A simulated time would overflow `f64`: flow volumes or arrival gaps
    /// so large that a run could not finish at a finite time. Checked
    /// before the run, which then never starts.
    NonFiniteTime {
        /// The times that would overflow.
        what: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range 0..{num_nodes}")
            }
            EngineError::Unreachable { src, dst } => {
                write!(f, "no path from node {src} to node {dst}")
            }
            EngineError::NotATorus => {
                write!(f, "dimension-ordered routing requires a torus fabric")
            }
            EngineError::DegenerateDimension { dim } => {
                write!(f, "dimension {dim} has length 1 and therefore no channels")
            }
            EngineError::InvalidDirection { direction } => {
                write!(f, "direction must be +1 or -1, got {direction}")
            }
            EngineError::InvalidPatch { message } => {
                write!(f, "invalid fabric patch: {message}")
            }
            EngineError::IdSpaceExceeded {
                entity,
                count,
                limit,
            } => {
                write!(
                    f,
                    "fabric would need {count} {entity}, exceeding the u32 id budget of {limit}"
                )
            }
            EngineError::NonFiniteTime { what } => {
                write!(f, "{what} would not be finite: volumes or gaps too large")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offending_values() {
        let msg = EngineError::NodeOutOfRange {
            node: 9,
            num_nodes: 8,
        }
        .to_string();
        assert!(msg.contains('9') && msg.contains('8'));
        assert!(EngineError::Unreachable { src: 1, dst: 2 }
            .to_string()
            .contains("no path"));
        assert!(EngineError::InvalidDirection { direction: 0 }
            .to_string()
            .contains("+1 or -1"));
        let budget = EngineError::IdSpaceExceeded {
            entity: "channels".to_string(),
            count: 1 << 35,
            limit: u32::MAX as u64,
        }
        .to_string();
        assert!(budget.contains("channels") && budget.contains("u32"));
    }
}
