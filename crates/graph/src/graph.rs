//! Undirected, loopless graphs with sorted adjacency lists.

use serde::Serialize;

use crate::{GraphError, NodeId};

/// An undirected, loopless graph over nodes `0..n`.
///
/// This is the *acceptance graph* of the stratification model: an edge
/// `(p, q)` means the two peers accept to collaborate. It also represents
/// *collaboration graphs* (matchings seen as graphs) for component and
/// stratification analysis.
///
/// Adjacency lists are kept sorted by node id, which lets the matching
/// algorithms of `strat-core` scan neighbours in global-ranking order when
/// node ids are rank-ordered, and makes `has_edge` a binary search.
///
/// # Examples
///
/// ```
/// use strat_graph::{Graph, NodeId};
///
/// let mut builder = Graph::builder(4);
/// builder.add_edge(NodeId::new(0), NodeId::new(1))?;
/// builder.add_edge(NodeId::new(2), NodeId::new(1))?;
/// let g = builder.build();
///
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(NodeId::new(1), NodeId::new(2)));
/// assert_eq!(g.degree(NodeId::new(3)), 0);
/// # Ok::<(), strat_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Graph {
    /// `adjacency[v]` is the sorted list of neighbours of `v`.
    adjacency: Vec<Vec<NodeId>>,
    /// Number of undirected edges.
    edge_count: usize,
}

impl Graph {
    /// Creates a builder for a graph with `node_count` nodes and no edges.
    #[must_use]
    pub fn builder(node_count: usize) -> GraphBuilder {
        GraphBuilder::new(node_count)
    }

    /// Creates an empty (edgeless) graph with `node_count` nodes.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = strat_graph::Graph::empty(5);
    /// assert_eq!(g.edge_count(), 0);
    /// ```
    #[must_use]
    pub fn empty(node_count: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); node_count],
            edge_count: 0,
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Duplicate edges are collapsed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= node_count`
    /// and [`GraphError::SelfLoop`] for edges `(v, v)`.
    pub fn from_edges<I>(node_count: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut builder = GraphBuilder::new(node_count);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v.index()].len()
    }

    /// Sorted neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[v.index()]
    }

    /// Whether the undirected edge `(u, v)` exists.
    ///
    /// Runs in `O(log deg)`. Returns `false` for `u == v` (loopless).
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Search the shorter list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adjacency[a.index()].binary_search(&b).is_ok()
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    ///
    /// # Examples
    ///
    /// ```
    /// let g = strat_graph::generators::cycle(3);
    /// let edges: Vec<_> = g.edges().collect();
    /// assert_eq!(edges.len(), 3);
    /// ```
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, neigh)| {
            let u = NodeId::new(u);
            neigh
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        crate::node_ids(self.node_count())
    }

    /// Returns the complement graph (complete graph minus this one), loopless.
    ///
    /// Intended for small analysis graphs; allocates `O(n²)` in the worst
    /// case.
    #[must_use]
    pub fn complement(&self) -> Self {
        let n = self.node_count();
        let mut builder = GraphBuilder::new(n);
        for u in 0..n {
            let u_id = NodeId::new(u);
            let mut neigh = self.adjacency[u].iter().copied().peekable();
            for v in (u + 1)..n {
                let v_id = NodeId::new(v);
                while neigh.peek().is_some_and(|&w| w < v_id) {
                    neigh.next();
                }
                if neigh.peek() == Some(&v_id) {
                    continue;
                }
                builder
                    .add_edge(u_id, v_id)
                    .expect("complement edges are in range and loopless");
            }
        }
        builder.build()
    }

    /// Checks internal invariants (sorted, symmetric, loopless adjacency and
    /// consistent edge count). Used by tests and debug assertions.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut half_edges = 0usize;
        for (u, neigh) in self.adjacency.iter().enumerate() {
            let u_id = NodeId::new(u);
            if neigh.windows(2).any(|w| w[0] >= w[1]) {
                return false; // not strictly sorted (also catches duplicates)
            }
            for &v in neigh {
                if v == u_id || v.index() >= self.node_count() {
                    return false;
                }
                if self.adjacency[v.index()].binary_search(&u_id).is_err() {
                    return false;
                }
            }
            half_edges += neigh.len();
        }
        half_edges == 2 * self.edge_count
    }
}

/// Incremental builder for [`Graph`].
///
/// Collects edges (deduplicated at [`build`](GraphBuilder::build) time) and
/// produces sorted adjacency lists.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    adjacency: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        Self {
            node_count,
            adjacency: vec![Vec::new(); node_count],
        }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Duplicates are tolerated and collapsed at build time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w.index() >= self.node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    node_count: self.node_count,
                });
            }
        }
        self.adjacency[u.index()].push(v);
        self.adjacency[v.index()].push(u);
        Ok(self)
    }

    /// Finalizes into a [`Graph`], sorting and deduplicating adjacency.
    #[must_use]
    pub fn build(mut self) -> Graph {
        let mut edge_count = 0usize;
        for neigh in &mut self.adjacency {
            neigh.sort_unstable();
            neigh.dedup();
            edge_count += neigh.len();
        }
        Graph {
            adjacency: self.adjacency,
            edge_count: edge_count / 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(3);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 0);
        assert!(g.check_invariants());
        assert!(!g.has_edge(n(0), n(1)));
    }

    #[test]
    fn builder_dedups_and_sorts() {
        let mut b = Graph::builder(4);
        b.add_edge(n(2), n(0)).unwrap();
        b.add_edge(n(0), n(2)).unwrap(); // duplicate, reversed
        b.add_edge(n(0), n(1)).unwrap();
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(n(0)), &[n(1), n(2)]);
        assert!(g.check_invariants());
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = Graph::builder(2);
        assert_eq!(
            b.add_edge(n(1), n(1)).unwrap_err(),
            GraphError::SelfLoop { node: n(1) }
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = Graph::builder(2);
        assert_eq!(
            b.add_edge(n(0), n(5)).unwrap_err(),
            GraphError::NodeOutOfRange {
                node: n(5),
                node_count: 2
            }
        );
    }

    #[test]
    fn has_edge_is_symmetric_and_loopless() {
        let g = Graph::from_edges(3, [(n(0), n(1))]).unwrap();
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(1), n(0)));
        assert!(!g.has_edge(n(0), n(0)));
        assert!(!g.has_edge(n(1), n(2)));
    }

    #[test]
    fn edges_iterator_yields_canonical_pairs() {
        let g = Graph::from_edges(4, [(n(3), n(1)), (n(0), n(2))]).unwrap();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![(n(0), n(2)), (n(1), n(3))]);
    }

    #[test]
    fn complement_of_empty_is_complete() {
        let g = Graph::empty(4).complement();
        assert_eq!(g.edge_count(), 6);
        assert!(g.check_invariants());
        // complement twice returns the original
        assert_eq!(g.complement(), Graph::empty(4));
    }

    #[test]
    fn complement_of_edge() {
        let g = Graph::from_edges(3, [(n(0), n(1))]).unwrap().complement();
        assert!(!g.has_edge(n(0), n(1)));
        assert!(g.has_edge(n(0), n(2)));
        assert!(g.has_edge(n(1), n(2)));
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert!(g.check_invariants());
    }
}
