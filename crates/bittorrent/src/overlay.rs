//! Overlay-degradation metrics: how broken is the swarm's connectivity?
//!
//! The fault plane ([`crate::faults`]) damages the overlay — crashes tear
//! rows out, partitions sever halves — and the stratification results of
//! the paper only hold while the swarm stays effectively connected. This
//! module measures the quantities that degrade, over the public [`Swarm`]
//! read API (it never mutates and consumes no randomness):
//!
//! * connected components and the **largest component** size;
//! * BFS **diameter** of the largest component;
//! * **seed reachability** — how many downloading peers can still route
//!   to a peer that holds the complete file;
//! * **stall detection** — downloading peers none of whose neighbours
//!   hold a piece they lack (piece-mode interest, so a peer surrounded
//!   only by mirrors of itself counts as stalled);
//! * recovery tracking: [`fully_connected`] is the predicate experiments
//!   poll to report recovery-time-to-full-connectivity after a heal.

use crate::swarm::Swarm;

/// One read-only measurement of the overlay's health.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlaySnapshot {
    /// Present peers (arena slots currently occupied).
    pub present: usize,
    /// Connected components among present peers.
    pub components: usize,
    /// Size of the largest connected component (0 on an empty swarm).
    pub largest_component: usize,
    /// BFS diameter of the largest component (0 when it has ≤ 1 peer).
    pub diameter: usize,
    /// Downloading peers with an overlay path to a seeding peer.
    pub seed_reachable: usize,
    /// Downloading (incomplete) present peers.
    pub downloading: usize,
    /// Downloading peers whose neighbourhood offers no useful piece.
    pub stalled: usize,
    /// Mean overlay degree over present peers (0 on an empty swarm).
    pub mean_degree: f64,
}

/// Whether every present peer sits in one connected component — the
/// recovery predicate after a partition heals (vacuously true on empty
/// swarms). One BFS from the first present peer, so it is cheap enough to
/// poll every round; it agrees with
/// `snapshot(swarm).largest_component == snapshot(swarm).present`.
#[must_use]
pub fn fully_connected(swarm: &Swarm) -> bool {
    let n = swarm.peer_count();
    let present = (0..n).filter(|&p| swarm.is_present(p)).count();
    let Some(start) = (0..n).find(|&p| swarm.is_present(p)) else {
        return true;
    };
    let mut seen = vec![false; n];
    seen[start] = true;
    let mut queue = vec![start];
    let mut head = 0;
    while head < queue.len() {
        let p = queue[head];
        head += 1;
        for q in swarm.neighbors(p) {
            if !seen[q] {
                seen[q] = true;
                queue.push(q);
            }
        }
    }
    queue.len() == present
}

/// Measures the overlay: one BFS sweep for components, one BFS per peer
/// of the largest component for its diameter, one multi-source BFS from
/// the seeding peers for reachability. `O(largest_component · edges)`
/// overall — built for session-scale populations, not the 10⁵-peer
/// closed-swarm benchmarks.
#[must_use]
pub fn snapshot(swarm: &Swarm) -> OverlaySnapshot {
    let n = swarm.peer_count();
    let present: Vec<usize> = (0..n).filter(|&p| swarm.is_present(p)).collect();
    let present_count = present.len();

    // Component labelling by BFS.
    let mut comp = vec![usize::MAX; n];
    let mut comp_sizes: Vec<usize> = Vec::new();
    let mut queue: Vec<usize> = Vec::new();
    for &start in &present {
        if comp[start] != usize::MAX {
            continue;
        }
        let label = comp_sizes.len();
        let mut size = 0usize;
        comp[start] = label;
        queue.clear();
        queue.push(start);
        let mut head = 0;
        while head < queue.len() {
            let p = queue[head];
            head += 1;
            size += 1;
            for q in swarm.neighbors(p) {
                if comp[q] == usize::MAX {
                    comp[q] = label;
                    queue.push(q);
                }
            }
        }
        comp_sizes.push(size);
    }
    let components = comp_sizes.len();
    let (largest_label, largest_component) = comp_sizes
        .iter()
        .copied()
        .enumerate()
        .max_by_key(|&(label, size)| (size, std::cmp::Reverse(label)))
        .unwrap_or((0, 0));

    // Diameter of the largest component: eccentricity sweep.
    let mut diameter = 0usize;
    if largest_component > 1 {
        let mut dist = vec![usize::MAX; n];
        for &source in present.iter().filter(|&&p| comp[p] == largest_label) {
            for &p in &present {
                dist[p] = usize::MAX;
            }
            dist[source] = 0;
            queue.clear();
            queue.push(source);
            let mut head = 0;
            while head < queue.len() {
                let p = queue[head];
                head += 1;
                diameter = diameter.max(dist[p]);
                for q in swarm.neighbors(p) {
                    if dist[q] == usize::MAX {
                        dist[q] = dist[p] + 1;
                        queue.push(q);
                    }
                }
            }
        }
    }

    // Seed reachability: multi-source BFS from every seeding peer.
    let mut reaches_seed = vec![false; n];
    queue.clear();
    for &p in &present {
        if swarm.peer(p).is_seeding() {
            reaches_seed[p] = true;
            queue.push(p);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let p = queue[head];
        head += 1;
        for q in swarm.neighbors(p) {
            if !reaches_seed[q] {
                reaches_seed[q] = true;
                queue.push(q);
            }
        }
    }

    let mut downloading = 0usize;
    let mut seed_reachable = 0usize;
    let mut stalled = 0usize;
    for &p in &present {
        let view = swarm.peer(p);
        if view.is_seeding() {
            continue;
        }
        downloading += 1;
        if reaches_seed[p] {
            seed_reachable += 1;
        }
        let useful = swarm
            .neighbors(p)
            .any(|q| view.pieces().is_interested_in(swarm.peer(q).pieces()));
        if !useful {
            stalled += 1;
        }
    }

    let degree_total: usize = present.iter().map(|&p| swarm.degree(p)).sum();
    OverlaySnapshot {
        present: present_count,
        components,
        largest_component,
        diameter,
        seed_reachable,
        downloading,
        stalled,
        mean_degree: if present_count == 0 {
            0.0
        } else {
            degree_total as f64 / present_count as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PeerBehavior, PieceSet, Swarm, SwarmConfig};

    fn tiny_swarm() -> Swarm {
        let config = SwarmConfig::builder()
            .leechers(11)
            .seeds(1)
            .piece_count(16)
            .initial_completion(0.3)
            .mean_neighbors(4.0)
            .seed(11)
            .build();
        Swarm::new(config, &[300.0; 12])
    }

    #[test]
    fn snapshot_of_connected_swarm() {
        let swarm = tiny_swarm();
        let snap = snapshot(&swarm);
        assert_eq!(snap.present, 12);
        assert!(snap.components >= 1);
        // Every non-largest component holds at least one peer.
        assert!(snap.largest_component + (snap.components - 1) <= snap.present);
        assert!(snap.largest_component >= 1 && snap.largest_component <= 12);
        assert!(snap.downloading <= 12);
        assert!(snap.seed_reachable <= snap.downloading);
        assert!(snap.stalled <= snap.downloading);
        assert!(snap.mean_degree > 0.0);
        if snap.components == 1 {
            assert!(fully_connected(&swarm));
            assert!(snap.diameter >= 1);
        }
    }

    #[test]
    fn departures_split_metrics_track() {
        let mut swarm = tiny_swarm();
        swarm.reserve_overlay_slack(4);
        let before = snapshot(&swarm);
        // Sever a peer's whole neighbourhood: it becomes its own component.
        let victim = 0;
        let nbrs: Vec<usize> = swarm.neighbors(victim).collect();
        for q in nbrs {
            assert!(swarm.disconnect_peers(victim, q));
        }
        let after = snapshot(&swarm);
        assert_eq!(after.present, before.present);
        assert!(
            after.components > 1,
            "isolated peer forms its own component"
        );
        assert!(!fully_connected(&swarm));
        assert!(after.largest_component < before.present);
        // An isolated incomplete peer has no useful neighbour: stalled,
        // and no path to a seed.
        assert!(after.stalled >= 1);
        assert!(after.seed_reachable < after.downloading);
    }

    #[test]
    fn empty_and_single_peer_edge_cases() {
        let mut swarm = tiny_swarm();
        swarm.reserve_overlay_slack(4);
        for p in 0..12 {
            swarm.depart(p);
        }
        let empty = snapshot(&swarm);
        assert_eq!(empty.present, 0);
        assert_eq!(empty.components, 0);
        assert_eq!(empty.largest_component, 0);
        assert!(fully_connected(&swarm), "vacuously connected");
        let lone = swarm.arrive(200.0, PeerBehavior::Compliant, PieceSet::full(16));
        let single = snapshot(&swarm);
        assert_eq!(single.present, 1);
        assert_eq!(single.components, 1);
        assert_eq!(single.largest_component, 1);
        assert_eq!(single.diameter, 0);
        assert!(fully_connected(&swarm));
        let _ = lone;
    }
}
