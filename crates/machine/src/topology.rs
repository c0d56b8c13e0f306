//! Interconnect topology cost models.
//!
//! The paper's era targeted hypercubes (its \[Kennedy89\] citation is a
//! hypercube conference) and other static networks where a message's
//! cost depends on the hop distance between nodes. The distributed
//! machine records a full traffic matrix; this module prices it under
//! the classic topologies, making decomposition choices comparable not
//! just by message *count* but by network *load*.

/// A static interconnection network over `pmax` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// All pairs one hop apart (crossbar / ideal network).
    Crossbar,
    /// Bidirectional ring: distance is the shorter way around.
    Ring,
    /// 2-D mesh of `rows x cols` (row-major node ids), Manhattan hops.
    Mesh2D {
        /// Grid rows.
        rows: i64,
        /// Grid columns.
        cols: i64,
    },
    /// Binary hypercube (requires `pmax` a power of two): Hamming hops.
    Hypercube,
}

impl Topology {
    /// Hop distance between two nodes. Zero for `src == dst`.
    pub fn hops(&self, pmax: i64, src: i64, dst: i64) -> u64 {
        debug_assert!((0..pmax).contains(&src) && (0..pmax).contains(&dst));
        if src == dst {
            return 0;
        }
        match self {
            Topology::Crossbar => 1,
            Topology::Ring => {
                let d = (src - dst).rem_euclid(pmax);
                d.min(pmax - d) as u64
            }
            Topology::Mesh2D { rows, cols } => {
                assert_eq!(rows * cols, pmax, "mesh shape must cover pmax");
                let (r1, c1) = (src / cols, src % cols);
                let (r2, c2) = (dst / cols, dst % cols);
                ((r1 - r2).abs() + (c1 - c2).abs()) as u64
            }
            Topology::Hypercube => {
                assert!(
                    pmax.count_ones() == 1,
                    "hypercube needs a power-of-two pmax"
                );
                (src ^ dst).count_ones() as u64
            }
        }
    }

    /// Network diameter (max hop distance).
    pub fn diameter(&self, pmax: i64) -> u64 {
        (0..pmax)
            .flat_map(|s| (0..pmax).map(move |d| (s, d)))
            .map(|(s, d)| self.hops(pmax, s, d))
            .max()
            .unwrap_or(0)
    }
}

/// The priced traffic of one execution under a topology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCost {
    /// Total messages (off-diagonal entries of the matrix).
    pub messages: u64,
    /// Sum over messages of their hop distance.
    pub total_hops: u64,
    /// The most loaded single source→destination pair, in hop-messages.
    pub max_pair_hops: u64,
}

/// Price a traffic matrix (`traffic[src][dst]` = messages sent) under a
/// topology.
pub fn price_traffic(topology: Topology, traffic: &[Vec<u64>]) -> TrafficCost {
    let pmax = traffic.len() as i64;
    let mut cost = TrafficCost::default();
    for (src, row) in traffic.iter().enumerate() {
        for (dst, &count) in row.iter().enumerate() {
            if src == dst || count == 0 {
                continue;
            }
            let hops = topology.hops(pmax, src as i64, dst as i64) * count;
            cost.messages += count;
            cost.total_hops += hops;
            cost.max_pair_hops = cost.max_pair_hops.max(hops);
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_distances() {
        let t = Topology::Ring;
        assert_eq!(t.hops(8, 0, 1), 1);
        assert_eq!(t.hops(8, 0, 7), 1); // wraps
        assert_eq!(t.hops(8, 0, 4), 4);
        assert_eq!(t.hops(8, 2, 2), 0);
        assert_eq!(t.diameter(8), 4);
    }

    #[test]
    fn mesh_distances() {
        let t = Topology::Mesh2D { rows: 2, cols: 4 };
        assert_eq!(t.hops(8, 0, 3), 3); // (0,0) -> (0,3)
        assert_eq!(t.hops(8, 0, 7), 4); // (0,0) -> (1,3)
        assert_eq!(t.diameter(8), 4);
    }

    #[test]
    fn hypercube_distances() {
        let t = Topology::Hypercube;
        assert_eq!(t.hops(8, 0b000, 0b111), 3);
        assert_eq!(t.hops(8, 0b010, 0b011), 1);
        assert_eq!(t.diameter(8), 3);
        assert_eq!(t.diameter(16), 4);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn hypercube_rejects_odd_sizes() {
        Topology::Hypercube.hops(6, 0, 1);
    }

    #[test]
    fn crossbar_is_flat() {
        assert_eq!(Topology::Crossbar.diameter(16), 1);
    }

    #[test]
    fn pricing_a_matrix() {
        // 4 nodes on a ring; 0 sends 10 msgs to 1, 5 msgs to 2
        let mut traffic = vec![vec![0u64; 4]; 4];
        traffic[0][1] = 10;
        traffic[0][2] = 5;
        let c = price_traffic(Topology::Ring, &traffic);
        assert_eq!(c.messages, 15);
        assert_eq!(c.total_hops, 10 + 10); // 10*1 + 5*2
        assert_eq!(c.max_pair_hops, 10);
        // the same traffic on a crossbar costs 15 hops
        assert_eq!(price_traffic(Topology::Crossbar, &traffic).total_hops, 15);
    }

    #[test]
    fn diagonal_ignored() {
        let mut traffic = vec![vec![0u64; 2]; 2];
        traffic[0][0] = 100;
        let c = price_traffic(Topology::Ring, &traffic);
        assert_eq!(c.messages, 0);
        assert_eq!(c.total_hops, 0);
    }
}
