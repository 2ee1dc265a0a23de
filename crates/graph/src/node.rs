//! Node identifiers.

use core::fmt;

use serde::Serialize;

/// Identifier of a peer (node) in a graph.
///
/// Nodes are dense indices `0..n`. The paper labels peers `1..=n` with label 1
/// being the best peer; this crate uses zero-based [`NodeId`]s everywhere and
/// leaves ranking semantics to `strat-core`, which maps node ids to ranks.
///
/// # Examples
///
/// ```
/// use strat_graph::NodeId;
///
/// let a = NodeId::new(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(format!("{a}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32` (graphs in this workspace are
    /// bounded well below `u32::MAX` nodes).
    #[inline]
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the dense index of this node.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        Self(value)
    }
}

impl From<NodeId> for u32 {
    fn from(value: NodeId) -> Self {
        value.0
    }
}

impl From<NodeId> for usize {
    fn from(value: NodeId) -> Self {
        value.index()
    }
}

/// Returns an iterator over the node ids `0..n`.
///
/// # Examples
///
/// ```
/// let ids: Vec<_> = strat_graph::node_ids(3).collect();
/// assert_eq!(ids.len(), 3);
/// assert_eq!(ids[2].index(), 2);
/// ```
pub fn node_ids(n: usize) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
    (0..n).map(NodeId::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index_round_trip() {
        for i in [0usize, 1, 17, 65_535] {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId::new(42).to_string(), "n42");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(NodeId::new(10) > NodeId::new(2));
    }

    #[test]
    fn conversions() {
        let id = NodeId::from(7u32);
        assert_eq!(u32::from(id), 7);
        assert_eq!(usize::from(id), 7);
    }

    #[test]
    fn node_ids_iterates_densely() {
        let v: Vec<_> = node_ids(4).collect();
        assert_eq!(
            v,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
        assert_eq!(node_ids(0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32::MAX")]
    fn oversized_index_panics() {
        let _ = NodeId::new(usize::MAX);
    }
}
