//! Structural graph metrics: degrees, distances, diameter.

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Mean degree `2m / n` of the graph, or 0 for the empty node set.
///
/// # Examples
///
/// ```
/// let g = strat_graph::generators::cycle(6);
/// assert_eq!(strat_graph::metrics::mean_degree(&g), 2.0);
/// ```
#[must_use]
pub fn mean_degree(graph: &Graph) -> f64 {
    if graph.node_count() == 0 {
        return 0.0;
    }
    2.0 * graph.edge_count() as f64 / graph.node_count() as f64
}

/// Edge density `m / (n choose 2)`, or 0 when `n < 2`.
#[must_use]
pub fn density(graph: &Graph) -> f64 {
    let n = graph.node_count();
    if n < 2 {
        return 0.0;
    }
    graph.edge_count() as f64 / (n * (n - 1) / 2) as f64
}

/// BFS distances (in hops) from `source`; `None` for unreachable nodes.
///
/// # Panics
///
/// Panics if `source` is out of range.
#[must_use]
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<Option<u32>> {
    let n = graph.node_count();
    assert!(
        source.index() < n,
        "source {source} out of range for {n} nodes"
    );
    let mut dist = vec![None; n];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &v in graph.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Eccentricity of `source` within its component (max BFS distance).
#[must_use]
pub fn eccentricity(graph: &Graph, source: NodeId) -> u32 {
    bfs_distances(graph, source)
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(0)
}

/// Exact diameter: max eccentricity over all nodes, per component.
///
/// `O(n · (n + m))`; intended for analysis-sized graphs (the collaboration
/// graphs of Section 4 have at most thousands of nodes).
#[must_use]
pub fn diameter(graph: &Graph) -> u32 {
    graph
        .nodes()
        .map(|v| eccentricity(graph, v))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use crate::generators;

    use super::*;

    #[test]
    fn mean_degree_and_density() {
        let g = generators::complete(5);
        assert_eq!(mean_degree(&g), 4.0);
        assert_eq!(density(&g), 1.0);
        assert_eq!(mean_degree(&Graph::empty(0)), 0.0);
        assert_eq!(density(&Graph::empty(1)), 0.0);
    }

    #[test]
    fn bfs_on_path() {
        let g = generators::path(4);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(eccentricity(&g, NodeId::new(0)), 3);
        assert_eq!(eccentricity(&g, NodeId::new(1)), 2);
        assert_eq!(diameter(&g), 3);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::empty(3);
        let d = bfs_distances(&g, NodeId::new(1));
        assert_eq!(d, vec![None, Some(0), None]);
        assert_eq!(diameter(&g), 0);
    }

    #[test]
    fn cycle_diameter() {
        assert_eq!(diameter(&generators::cycle(6)), 3);
        assert_eq!(diameter(&generators::cycle(7)), 3);
    }
}
