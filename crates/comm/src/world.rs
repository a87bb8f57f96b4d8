use tutel_simgpu::{GpuCostModel, LinkModel, Topology};

/// A simulated communication world: topology plus the calibrated link
/// and kernel cost models used to price collectives.
///
/// # Example
///
/// ```
/// use tutel_comm::World;
///
/// let world = World::azure(64);
/// assert_eq!(world.size(), 64);
/// assert_eq!(world.topology().nnodes(), 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct World {
    topology: Topology,
    nvlink: LinkModel,
    ib: LinkModel,
    gpu: GpuCostModel,
}

impl World {
    /// Creates a world from an explicit topology with A100/NDv4 link
    /// models.
    pub fn new(topology: Topology) -> Self {
        World {
            topology,
            nvlink: LinkModel::nvlink(),
            ib: LinkModel::hdr_infiniband(),
            gpu: GpuCostModel::a100(),
        }
    }

    /// The Azure NDm A100 v4 preset used throughout the paper's
    /// evaluation: nodes of 8 GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero, or above 8 and not a multiple
    /// of 8.
    pub fn azure(world_size: usize) -> Self {
        World::new(Topology::azure_ndv4(world_size))
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// World size (total GPUs).
    pub fn size(&self) -> usize {
        self.topology.world_size()
    }

    /// Intra-node link model (NVLink/NVSwitch).
    pub fn nvlink(&self) -> &LinkModel {
        &self.nvlink
    }

    /// Inter-node link model (HDR InfiniBand).
    pub fn infiniband(&self) -> &LinkModel {
        &self.ib
    }

    /// Kernel cost model of one GPU.
    pub fn gpu(&self) -> &GpuCostModel {
        &self.gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_presets() {
        assert_eq!(World::azure(8).topology().nnodes(), 1);
        assert_eq!(World::azure(16).topology().nnodes(), 2);
        assert_eq!(World::azure(2048).topology().nnodes(), 256);
    }
}
