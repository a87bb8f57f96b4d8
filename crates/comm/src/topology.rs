use std::fmt;

/// A two-level cluster topology: `nnodes` nodes of `gpus_per_node` GPUs.
///
/// GPUs within a node are connected by NVLink/NVSwitch; nodes are
/// connected by an InfiniBand fabric with one NIC per GPU (rail-
/// optimized, as on Azure NDm A100 v4). Ranks are assigned node-major:
/// rank `r` lives on node `r / gpus_per_node`.
///
/// # Example
///
/// ```
/// use tutel_comm::Topology;
///
/// let topo = Topology::new(2, 4);
/// assert_eq!(topo.world_size(), 8);
/// assert_eq!(topo.node_of(5), 1);
/// assert_eq!(topo.local_rank(5), 1);
/// assert!(topo.same_node(4, 7));
/// assert!(!topo.same_node(3, 4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    nnodes: usize,
    gpus_per_node: usize,
}

impl Topology {
    /// Creates a topology of `nnodes × gpus_per_node` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nnodes: usize, gpus_per_node: usize) -> Self {
        assert!(
            nnodes > 0 && gpus_per_node > 0,
            "topology dimensions must be positive"
        );
        Topology {
            nnodes,
            gpus_per_node,
        }
    }

    /// A single-node topology (all GPUs on NVLink).
    pub fn single_node(gpus: usize) -> Self {
        Topology::new(1, gpus)
    }

    /// The Azure NDm A100 v4 shape used throughout the paper: 8 GPUs per
    /// node, scaled to `world_size` GPUs (which must be a multiple of 8,
    /// or at most 8).
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero or not expressible as `k × 8`
    /// (for `world_size > 8`).
    pub fn azure_ndv4(world_size: usize) -> Self {
        assert!(world_size > 0, "world size must be positive");
        if world_size <= 8 {
            Topology::new(1, world_size)
        } else {
            assert!(
                world_size.is_multiple_of(8),
                "multi-node NDv4 topologies come in multiples of 8 GPUs"
            );
            Topology::new(world_size / 8, 8)
        }
    }

    /// The shape the threaded executors (serving, the conformance
    /// harness, the overlap sweep) simulate `world` ranks on: two
    /// nodes of `world / 2` for an even world, so that 2DH exercises
    /// both its intra- and inter-node phase; an odd world has no such
    /// shape and gets a single node of `world` ranks (2DH's degenerate
    /// one-node grid). The result's [`Topology::world_size`] is
    /// `world` (1 for `world == 0`).
    pub fn for_world(world: usize) -> Self {
        if world >= 2 && world.is_multiple_of(2) {
            Topology::new(2, world / 2)
        } else {
            Topology::single_node(world.max(1))
        }
    }

    /// Number of nodes.
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// GPUs per node (`m` in the paper's 2DH analysis).
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Total number of GPUs (`n` / `W` in the paper).
    pub fn world_size(&self) -> usize {
        self.nnodes * self.gpus_per_node
    }

    /// Node index hosting `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world_size()`.
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.world_size(), "rank {rank} out of range");
        rank / self.gpus_per_node
    }

    /// Rank's index within its node.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world_size()`.
    pub fn local_rank(&self, rank: usize) -> usize {
        assert!(rank < self.world_size(), "rank {rank} out of range");
        rank % self.gpus_per_node
    }

    /// Whether two ranks share a node (i.e. communicate over NVLink).
    ///
    /// # Panics
    ///
    /// Panics if either rank is out of range.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Iterator over all ranks on a node.
    ///
    /// # Panics
    ///
    /// Panics if `node >= nnodes()`.
    pub fn ranks_on_node(&self, node: usize) -> std::ops::Range<usize> {
        assert!(node < self.nnodes, "node {node} out of range");
        node * self.gpus_per_node..(node + 1) * self.gpus_per_node
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} node(s) × {} GPU(s)", self.nnodes, self.gpus_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_world_is_two_nodes_for_even_worlds_and_total() {
        assert_eq!(Topology::for_world(1), Topology::single_node(1));
        assert_eq!(Topology::for_world(2), Topology::new(2, 1));
        assert_eq!(Topology::for_world(8), Topology::new(2, 4));
        // No two-node shape holds an odd world: one node of all ranks.
        assert_eq!(Topology::for_world(3), Topology::single_node(3));
        for world in 1..=9 {
            assert_eq!(Topology::for_world(world).world_size(), world);
        }
        assert_eq!(Topology::for_world(0), Topology::single_node(1));
    }

    #[test]
    fn node_major_rank_layout() {
        let t = Topology::new(3, 4);
        assert_eq!(t.world_size(), 12);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(11), 2);
        assert_eq!(t.local_rank(11), 3);
        assert_eq!(t.ranks_on_node(1).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn azure_preset_shapes() {
        assert_eq!(Topology::azure_ndv4(4).nnodes(), 1);
        assert_eq!(Topology::azure_ndv4(4).gpus_per_node(), 4);
        let big = Topology::azure_ndv4(2048);
        assert_eq!(big.nnodes(), 256);
        assert_eq!(big.gpus_per_node(), 8);
    }

    #[test]
    #[should_panic(expected = "multiples of 8")]
    fn azure_preset_rejects_ragged_sizes() {
        Topology::azure_ndv4(12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_checks_range() {
        Topology::new(1, 2).node_of(2);
    }

    #[test]
    fn same_node_boundary() {
        let t = Topology::new(2, 8);
        assert!(t.same_node(0, 7));
        assert!(!t.same_node(7, 8));
        assert!(t.same_node(8, 15));
    }
}
