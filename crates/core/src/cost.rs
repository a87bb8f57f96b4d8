//! The modelled cluster every adaptive decision is priced on.
//!
//! The paper runs on Azure NDm A100 v4 nodes (8× A100 on NVLink, 8× HDR
//! InfiniBand NICs); this module stands in for them with analytic
//! models calibrated against the paper's published anchors
//! ([`calib`]): [`GpuCostModel`] for the kernels and [`LinkModel`] for
//! the links. Tutel's adaptive decisions depend only on the relative
//! order of costs, so the calibrated models reproduce the decision
//! landscape: who wins, by roughly what factor, where the crossovers
//! fall.
//!
//! [`ClusterModel`] is the testbed as one value: a [`Topology`] with
//! those models. Its `*_time` methods price every collective the
//! parallelism router, the pipelining search and the layer simulator
//! consult, and what the scaling benchmarks plot. The executed ranks
//! never read it: they need only the [`Topology`].

use tutel_comm::{AllToAllAlgo, Topology};

pub mod calib;
mod gpu;
mod link;

pub use gpu::GpuCostModel;
pub use link::{fabric_contention, LinkModel, Protocol};

/// Seconds, the unit of every cost model.
pub type Seconds = f64;

/// Which leg of the MoE iteration an All-to-All serves. The two legs
/// carry different payloads under asymmetric capacity, so a priced
/// step records them under separate telemetry buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum A2aPhase {
    /// Token dispatch: encode → experts.
    Dispatch,
    /// Expert-output combine: experts → decode.
    Combine,
}

impl A2aPhase {
    /// The `op` string recorded into telemetry for this leg.
    pub fn op(&self) -> &'static str {
        match self {
            A2aPhase::Dispatch => "a2a_dispatch",
            A2aPhase::Combine => "a2a_combine",
        }
    }
}

/// Which implementation executes a 2DH All-to-All.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum A2aImpl {
    /// Algorithm 3 written against NCCL send/recv APIs: phases are
    /// separated by synchronization barriers and run the default
    /// protocol.
    #[default]
    NcclApi,
    /// MSCCL-compiled fused kernel: no inter-phase barriers and free
    /// protocol choice (Section 4.3).
    Msccl,
}

/// A simulated cluster: topology plus the calibrated link and kernel
/// cost models, pricing every collective on it.
///
/// All `*_time` methods return the per-iteration wall-clock seconds of
/// the collective for `bytes` of payload *per GPU*.
///
/// # Example
///
/// ```
/// use tutel::cost::{ClusterModel, Protocol};
/// use tutel_comm::AllToAllAlgo;
///
/// let cluster = ClusterModel::azure(2048);
/// let s = 1024.0 * 1024.0; // 1 MiB per GPU
/// let linear = cluster.all_to_all_time(AllToAllAlgo::Linear, s, Protocol::Simple);
/// let two_dh = cluster.all_to_all_time(AllToAllAlgo::TwoDh, s, Protocol::Simple);
/// assert!(linear / two_dh > 5.0, "2DH must win big for small messages at scale");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ClusterModel {
    topology: Topology,
    nvlink: LinkModel,
    ib: LinkModel,
    gpu: GpuCostModel,
}

impl ClusterModel {
    /// The Azure NDm A100 v4 preset used throughout the paper's
    /// evaluation: nodes of 8 GPUs on NVLink, joined by HDR InfiniBand.
    ///
    /// # Panics
    ///
    /// Panics if `world_size` is zero, or above 8 and not a multiple
    /// of 8.
    pub fn azure(world_size: usize) -> Self {
        ClusterModel {
            topology: Topology::azure_ndv4(world_size),
            nvlink: LinkModel::nvlink(),
            ib: LinkModel::hdr_infiniband(),
            gpu: GpuCostModel::a100(),
        }
    }

    /// World size (total GPUs).
    pub fn size(&self) -> usize {
        self.topology.world_size()
    }

    /// Kernel cost model of one GPU.
    pub fn gpu(&self) -> &GpuCostModel {
        &self.gpu
    }

    /// Dispatch on algorithm. 2DH uses the NCCL-API implementation; use
    /// [`ClusterModel::two_dh_time_impl`] for the MSCCL variant.
    pub fn all_to_all_time(&self, algo: AllToAllAlgo, bytes: f64, protocol: Protocol) -> Seconds {
        match algo {
            AllToAllAlgo::Linear => self.linear_time(bytes, protocol),
            AllToAllAlgo::TwoDh => self.two_dh_time_impl(bytes, protocol, A2aImpl::NcclApi),
        }
    }

    /// Linear (Algorithm 1) All-to-All of `bytes` per GPU.
    ///
    /// Each GPU sends `n − 1` messages of `bytes/n`: `m − 1` over NVLink
    /// (parallel NVSwitch paths, but serialized per source engine) and
    /// `n − m` over its InfiniBand NIC (serialized per NIC). The two
    /// proceed concurrently; the slower side dominates.
    pub fn linear_time(&self, bytes: f64, protocol: Protocol) -> Seconds {
        let topo = &self.topology;
        let n = topo.world_size();
        let m = topo.gpus_per_node();
        if n <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let chunk = bytes / n as f64;
        let nv = &self.nvlink;
        let intra = nv.base_latency() + nv.burst_time(m - 1, chunk, protocol);
        if topo.nnodes() == 1 {
            return intra;
        }
        let ib = &self.ib;
        let contention = fabric_contention(topo.nnodes());
        let inter = ib.base_latency() + ib.burst_time(n - m, chunk, protocol) * contention;
        intra.max(inter)
    }

    /// 2DH (Algorithm 3) All-to-All of `bytes` per GPU.
    ///
    /// Phases: stride-align (contiguous-coalesced device copy),
    /// intra-node exchange of `S/m` blocks, stride-align, inter-node
    /// exchange of `S·m/n` blocks among `nnodes − 1` peers. The
    /// NCCL-API implementation pays a barrier between phases and is
    /// pinned to the Simple protocol; MSCCL fuses phases and may pick
    /// LL128.
    pub fn two_dh_time_impl(&self, bytes: f64, protocol: Protocol, imp: A2aImpl) -> Seconds {
        let topo = &self.topology;
        let n = topo.world_size();
        let m = topo.gpus_per_node();
        let nnodes = topo.nnodes();
        if n <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let protocol = match imp {
            A2aImpl::NcclApi => Protocol::Simple,
            A2aImpl::Msccl => protocol,
        };
        let gpu = &self.gpu;
        let nv = &self.nvlink;
        // 2DH's stride copies are single coalesced kernels: near-peak
        // memory bandwidth independent of n (the whole point of the
        // alignment phases). A 1.25 factor prices the read+write+index
        // arithmetic versus a plain copy.
        let align = 1.25 * gpu.copy_time(bytes);
        let intra_block = bytes / m as f64;
        let intra = nv.base_latency() + nv.burst_time(m - 1, intra_block, protocol);
        let (inter, align2) = if nnodes > 1 {
            let ib = &self.ib;
            let inter_block = bytes * m as f64 / n as f64;
            let contention = fabric_contention(nnodes);
            (
                ib.base_latency() + ib.burst_time(nnodes - 1, inter_block, protocol) * contention,
                align,
            )
        } else {
            (0.0, 0.0)
        };
        let phases = align + intra + align2 + inter;
        match imp {
            A2aImpl::NcclApi => phases + 3.0 * calib::TWO_DH_PHASE_BARRIER,
            // MSCCL fuses phases, overlapping the alignment copies with
            // the exchanges; model as removing the barriers and hiding
            // 40 % of the local copy work.
            A2aImpl::Msccl => phases - 0.4 * (align + align2),
        }
    }

    /// Three-dimensional hierarchical All-to-All (Section 4.3,
    /// "Extension"): for dragonfly-style fabrics, the inter-node phase
    /// is itself split into intra-group and inter-group exchanges,
    /// aggregating `nodes_per_group` nodes' traffic before crossing the
    /// global links. `bytes` is per GPU.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_group` is zero or does not divide the node
    /// count.
    pub fn three_dh_time(&self, bytes: f64, protocol: Protocol, nodes_per_group: usize) -> Seconds {
        let topo = &self.topology;
        let n = topo.world_size();
        let m = topo.gpus_per_node();
        let nnodes = topo.nnodes();
        assert!(
            nodes_per_group > 0 && nnodes.is_multiple_of(nodes_per_group),
            "{nodes_per_group} nodes/group does not divide {nnodes} nodes"
        );
        if n <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let ngroups = nnodes / nodes_per_group;
        if ngroups == 1 {
            // Degenerates to plain 2DH.
            return self.two_dh_time_impl(bytes, protocol, A2aImpl::Msccl);
        }
        let gpu = &self.gpu;
        let nv = &self.nvlink;
        let ib = &self.ib;
        // Intra-node aggregation (same as 2DH phases 1–3).
        let align = 1.25 * gpu.copy_time(bytes);
        let intra = nv.base_latency() + nv.burst_time(m - 1, bytes / m as f64, protocol);
        // Intra-group exchange: each GPU relays ~S bytes among its
        // (nodes_per_group − 1) group peers so that traffic for every
        // remote group is aggregated group-wide before crossing the
        // global links. This *doubles* the per-NIC volume relative to
        // 2DH — the price paid for much larger global messages.
        let intra_group_msg = bytes / nodes_per_group as f64;
        let intra_group =
            ib.base_latency() + ib.burst_time(nodes_per_group - 1, intra_group_msg, protocol);
        // Inter-group exchange: (ngroups − 1) peers, message S/ngroups,
        // over the contended global fabric (contention still scales
        // with total traffic, i.e. all nodes).
        let inter_group_msg = bytes / ngroups as f64;
        let contention = fabric_contention(nnodes);
        let inter_group = ib.base_latency()
            + ib.burst_time(ngroups - 1, inter_group_msg, protocol) * contention
            + 1.25 * gpu.copy_time(bytes);
        align + intra + align + intra_group + inter_group
    }

    /// Ring all-gather collecting `shard_bytes` from each of `group`
    /// ranks (total received: `shard_bytes × (group − 1)`).
    ///
    /// Used by P1 to materialize ZeRO-sharded expert parameters.
    pub fn all_gather_time(&self, shard_bytes: f64, group: usize) -> Seconds {
        if group <= 1 || shard_bytes <= 0.0 {
            return 0.0;
        }
        let topo = &self.topology;
        // A ring across nodes is bottlenecked by its slowest hop.
        let spans_nodes = group > topo.gpus_per_node() && topo.nnodes() > 1;
        let link = if spans_nodes { &self.ib } else { &self.nvlink };
        let contention = if spans_nodes {
            fabric_contention(topo.nnodes())
        } else {
            1.0
        };
        link.base_latency() + link.burst_time(group - 1, shard_bytes, Protocol::Simple) * contention
    }

    /// Bus bandwidth (bytes/s) achieved by an All-to-All of `bytes` per
    /// GPU: the standard nccl-tests metric `S·(n−1)/n / t`.
    pub fn bus_bandwidth(&self, algo: AllToAllAlgo, bytes: f64, protocol: Protocol) -> f64 {
        let n = self.size() as f64;
        let t = self.all_to_all_time(algo, bytes, protocol);
        if t <= 0.0 {
            return 0.0;
        }
        bytes * (n - 1.0) / n / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn azure_presets() {
        assert_eq!(ClusterModel::azure(8).topology.nnodes(), 1);
        assert_eq!(ClusterModel::azure(16).topology.nnodes(), 2);
        assert_eq!(ClusterModel::azure(2048).topology.nnodes(), 256);
        assert_eq!(ClusterModel::azure(2048).size(), 2048);
    }

    #[test]
    fn two_dh_wins_small_messages_at_scale() {
        let t = ClusterModel::azure(2048);
        let linear = t.linear_time(MIB, Protocol::Simple);
        let two_dh = t.two_dh_time_impl(MIB, Protocol::Simple, A2aImpl::NcclApi);
        let speedup = linear / two_dh;
        // Paper: up to 20.7× at 2,048 GPUs for small sizes.
        assert!(speedup > 5.0, "speedup = {speedup}");
    }

    #[test]
    fn linear_wins_large_messages_at_small_scale() {
        let t = ClusterModel::azure(64);
        let big = 256.0 * MIB;
        let linear = t.linear_time(big, Protocol::Simple);
        let two_dh = t.two_dh_time_impl(big, Protocol::Simple, A2aImpl::NcclApi);
        // Figure 20: 2DH has higher latency at 256 MiB / 64 GPUs due to
        // the extra copies.
        assert!(two_dh > linear, "two_dh {two_dh} vs linear {linear}");
    }

    #[test]
    fn msccl_beats_ncclapi_two_dh() {
        let t = ClusterModel::azure(64);
        for &s in &[MIB, 32.0 * MIB, 256.0 * MIB] {
            let nccl = t.two_dh_time_impl(s, Protocol::Simple, A2aImpl::NcclApi);
            let msccl = t.two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl);
            assert!(msccl < nccl, "size {s}");
        }
    }

    #[test]
    fn ll128_helps_small_sizes_under_msccl() {
        let t = ClusterModel::azure(512);
        let small = t.two_dh_time_impl(MIB, Protocol::Ll128, A2aImpl::Msccl);
        let small_simple = t.two_dh_time_impl(MIB, Protocol::Simple, A2aImpl::Msccl);
        assert!(small < small_simple);
        let big = t.two_dh_time_impl(256.0 * MIB, Protocol::Ll128, A2aImpl::Msccl);
        let big_simple = t.two_dh_time_impl(256.0 * MIB, Protocol::Simple, A2aImpl::Msccl);
        assert!(big > big_simple);
    }

    #[test]
    fn three_dh_beats_two_dh_for_tiny_messages_at_extreme_scale() {
        // Section 4.3 Extension: with n/m still large, a third level of
        // aggregation pays off for small payloads.
        let t = ClusterModel::azure(4096);
        let s = 0.25 * MIB;
        let two = t.two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl);
        let three = t.three_dh_time(s, Protocol::Simple, 16);
        assert!(three < two, "3DH {three} vs 2DH {two}");
        // And it degenerates to 2DH for a single group.
        let single_group = t.three_dh_time(s, Protocol::Simple, 512);
        assert!((single_group - two).abs() / two < 1e-9);
    }

    #[test]
    fn three_dh_loses_for_large_messages() {
        // The extra copy + hop costs more than it saves once messages
        // already saturate the links.
        let t = ClusterModel::azure(1024);
        let s = 256.0 * MIB;
        let two = t.two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl);
        let three = t.three_dh_time(s, Protocol::Simple, 16);
        assert!(three > two, "3DH {three} vs 2DH {two}");
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn three_dh_validates_grouping() {
        ClusterModel::azure(64).three_dh_time(1024.0, Protocol::Simple, 3);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let t = ClusterModel::azure(1);
        assert_eq!(t.linear_time(MIB, Protocol::Simple), 0.0);
        assert_eq!(t.all_gather_time(MIB, 1), 0.0);
    }

    #[test]
    fn busbw_declines_with_scale_for_fixed_size() {
        let s = MIB;
        let bw64 = ClusterModel::azure(64).bus_bandwidth(AllToAllAlgo::Linear, s, Protocol::Simple);
        let bw2048 =
            ClusterModel::azure(2048).bus_bandwidth(AllToAllAlgo::Linear, s, Protocol::Simple);
        assert!(bw64 > 3.0 * bw2048, "bw64 {bw64} bw2048 {bw2048}");
    }
}
