//! Timing models for every collective, over a [`World`]'s calibrated
//! link and kernel models.
//!
//! These are the costs the adaptive mechanisms (parallelism router,
//! pipelining search) consult, and what the scaling benchmarks plot.

use tutel_simgpu::{calib, fabric_contention, Protocol, Seconds};

use crate::{AllToAllAlgo, World};

/// Which leg of the MoE iteration an All-to-All serves. The two legs
/// carry different payloads under asymmetric capacity, so observed
/// pricing attributes them to separate telemetry buckets.
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

/// Prices collectives on a given [`World`].
///
/// All `*_time` methods return the per-iteration wall-clock seconds of
/// the collective for `bytes` of payload *per GPU*.
///
/// # Example
///
/// ```
/// use tutel_comm::{AllToAllAlgo, CollectiveTiming, World};
/// use tutel_simgpu::Protocol;
///
/// let t = CollectiveTiming::new(World::azure(2048));
/// let s = 1024.0 * 1024.0; // 1 MiB per GPU
/// let linear = t.all_to_all_time(AllToAllAlgo::Linear, s, Protocol::Simple);
/// let two_dh = t.all_to_all_time(AllToAllAlgo::TwoDh, s, Protocol::Simple);
/// assert!(linear / two_dh > 5.0, "2DH must win big for small messages at scale");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CollectiveTiming {
    world: World,
}

impl CollectiveTiming {
    /// Creates a pricer for `world`.
    pub fn new(world: World) -> Self {
        CollectiveTiming { world }
    }

    /// The world being priced.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Dispatch on algorithm. 2DH uses the NCCL-API implementation; use
    /// [`CollectiveTiming::two_dh_time_impl`] for the MSCCL variant.
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
        let topo = self.world.topology();
        let n = topo.world_size();
        let m = topo.gpus_per_node();
        if n <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let chunk = bytes / n as f64;
        let nv = self.world.nvlink();
        let intra = nv.base_latency() + nv.burst_time(m - 1, chunk, protocol);
        if topo.nnodes() == 1 {
            return intra;
        }
        let ib = self.world.infiniband();
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
        let topo = self.world.topology();
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
        let gpu = self.world.gpu();
        let nv = self.world.nvlink();
        // 2DH's stride copies are single coalesced kernels: near-peak
        // memory bandwidth independent of n (the whole point of the
        // alignment phases). A 1.25 factor prices the read+write+index
        // arithmetic versus a plain copy.
        let align = 1.25 * gpu.copy_time(bytes);
        let intra_block = bytes / m as f64;
        let intra = nv.base_latency() + nv.burst_time(m - 1, intra_block, protocol);
        let (inter, align2) = if nnodes > 1 {
            let ib = self.world.infiniband();
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

    /// Naïve local-aggregation All-to-All (Figure 15 top): intra-node
    /// aggregation via `n/m` exchanges of *non-contiguous* `S/n` chunks
    /// (the scattered-access cost 2DH eliminates) plus the same
    /// inter-node phase as 2DH.
    pub fn naive_local_agg_time(&self, bytes: f64, protocol: Protocol) -> Seconds {
        let topo = self.world.topology();
        let n = topo.world_size();
        let m = topo.gpus_per_node();
        let nnodes = topo.nnodes();
        if n <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        let gpu = self.world.gpu();
        let nv = self.world.nvlink();
        let chunk = bytes / n as f64;
        // Scattered gather/scatter at S/n granularity dominates as n
        // grows (anchor: ~600 µs → ~5 ms for S = 128 MiB, m = 8).
        let scattered = gpu.strided_copy_time(bytes, chunk);
        let intra =
            nv.base_latency() + nv.burst_time(m - 1, bytes / m as f64, protocol) + scattered;
        if nnodes == 1 {
            return intra;
        }
        let ib = self.world.infiniband();
        let inter_block = bytes * m as f64 / n as f64;
        let contention = fabric_contention(nnodes);
        let inter =
            ib.base_latency() + ib.burst_time(nnodes - 1, inter_block, protocol) * contention;
        intra + inter
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
        let topo = self.world.topology();
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
        let gpu = self.world.gpu();
        let nv = self.world.nvlink();
        let ib = self.world.infiniband();
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
        self.ring_time(shard_bytes, group, 1.0)
    }

    /// Ring all-reduce of `bytes` over `group` ranks:
    /// reduce-scatter + all-gather, each moving `bytes × (g−1)/g`.
    pub fn all_reduce_time(&self, bytes: f64, group: usize) -> Seconds {
        if group <= 1 || bytes <= 0.0 {
            return 0.0;
        }
        self.ring_time(bytes / group as f64, group, 2.0)
    }

    /// [`CollectiveTiming::all_to_all_time`] that also records the
    /// priced collective (operation, algorithm, payload bytes, modeled
    /// seconds) into `tel` — the per-collective audit trail of a
    /// simulated run. No-op recording when `tel` is disabled.
    ///
    /// The MoE iteration runs *two* All-to-Alls per layer — token
    /// dispatch and expert-output combine — whose payloads differ
    /// whenever the capacity is asymmetric (e.g. top-ANY routing or
    /// chunked pipelining). They are attributed to separate `op`
    /// buckets via [`A2aPhase`]; summing them into one `"all_to_all"`
    /// bucket skewed the Algorithm-2 prior.
    pub fn all_to_all_time_observed(
        &self,
        phase: A2aPhase,
        algo: AllToAllAlgo,
        bytes: f64,
        protocol: Protocol,
        tel: &tutel_obs::Telemetry,
    ) -> Seconds {
        let t = self.all_to_all_time(algo, bytes, protocol);
        tel.collective(phase.op(), &algo.to_string(), bytes, t);
        t
    }

    /// Bus bandwidth (bytes/s) achieved by an All-to-All of `bytes` per
    /// GPU: the standard nccl-tests metric `S·(n−1)/n / t`.
    pub fn bus_bandwidth(&self, algo: AllToAllAlgo, bytes: f64, protocol: Protocol) -> f64 {
        let n = self.world.size() as f64;
        let t = self.all_to_all_time(algo, bytes, protocol);
        if t <= 0.0 {
            return 0.0;
        }
        bytes * (n - 1.0) / n / t
    }

    fn ring_time(&self, step_bytes: f64, group: usize, passes: f64) -> Seconds {
        if group <= 1 || step_bytes <= 0.0 {
            return 0.0;
        }
        let topo = self.world.topology();
        // A ring across nodes is bottlenecked by its slowest hop.
        let spans_nodes = group > topo.gpus_per_node() && topo.nnodes() > 1;
        let link = if spans_nodes {
            self.world.infiniband()
        } else {
            self.world.nvlink()
        };
        let contention = if spans_nodes {
            fabric_contention(topo.nnodes())
        } else {
            1.0
        };
        link.base_latency()
            + passes * link.burst_time(group - 1, step_bytes, Protocol::Simple) * contention
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn two_dh_wins_small_messages_at_scale() {
        let t = CollectiveTiming::new(World::azure(2048));
        let linear = t.linear_time(MIB, Protocol::Simple);
        let two_dh = t.two_dh_time_impl(MIB, Protocol::Simple, A2aImpl::NcclApi);
        let speedup = linear / two_dh;
        // Paper: up to 20.7× at 2,048 GPUs for small sizes.
        assert!(speedup > 5.0, "speedup = {speedup}");
    }

    #[test]
    fn linear_wins_large_messages_at_small_scale() {
        let t = CollectiveTiming::new(World::azure(64));
        let big = 256.0 * MIB;
        let linear = t.linear_time(big, Protocol::Simple);
        let two_dh = t.two_dh_time_impl(big, Protocol::Simple, A2aImpl::NcclApi);
        // Figure 20: 2DH has higher latency at 256 MiB / 64 GPUs due to
        // the extra copies.
        assert!(two_dh > linear, "two_dh {two_dh} vs linear {linear}");
    }

    #[test]
    fn msccl_beats_ncclapi_two_dh() {
        let t = CollectiveTiming::new(World::azure(64));
        for &s in &[MIB, 32.0 * MIB, 256.0 * MIB] {
            let nccl = t.two_dh_time_impl(s, Protocol::Simple, A2aImpl::NcclApi);
            let msccl = t.two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl);
            assert!(msccl < nccl, "size {s}");
        }
    }

    #[test]
    fn ll128_helps_small_sizes_under_msccl() {
        let t = CollectiveTiming::new(World::azure(512));
        let small = t.two_dh_time_impl(MIB, Protocol::Ll128, A2aImpl::Msccl);
        let small_simple = t.two_dh_time_impl(MIB, Protocol::Simple, A2aImpl::Msccl);
        assert!(small < small_simple);
        let big = t.two_dh_time_impl(256.0 * MIB, Protocol::Ll128, A2aImpl::Msccl);
        let big_simple = t.two_dh_time_impl(256.0 * MIB, Protocol::Simple, A2aImpl::Msccl);
        assert!(big > big_simple);
    }

    #[test]
    fn naive_agg_degrades_with_scale_more_than_2dh() {
        // Both algorithms pay the (roughly constant) inter-node phase;
        // the naïve one additionally pays scattered S/n-granular memory
        // access that collapses as n grows (Section 3.4 anchor:
        // ~600 µs → ~5 ms). Compare growth from 16 to 2,048 GPUs.
        let big = CollectiveTiming::new(World::azure(2048));
        let s = 128.0 * MIB;
        // At scale the naïve algorithm is strictly worse than 2DH.
        let naive = big.naive_local_agg_time(s, Protocol::Simple);
        let two_dh = big.two_dh_time_impl(s, Protocol::Simple, A2aImpl::NcclApi);
        assert!(naive > two_dh, "naive {naive} vs 2DH {two_dh}");
        // The scattered-access local phase costs milliseconds at
        // n = 2048 while 2DH's aligned copies stay scale-independent
        // (and far cheaper).
        let scattered = big.world().gpu().strided_copy_time(s, s / 2048.0);
        let aligned = 1.25 * big.world().gpu().copy_time(s);
        assert!(scattered > 1e-3, "scattered access {scattered}");
        assert!(
            scattered > 4.0 * aligned,
            "scattered {scattered} vs aligned {aligned}"
        );
    }

    #[test]
    fn three_dh_beats_two_dh_for_tiny_messages_at_extreme_scale() {
        // Section 4.3 Extension: with n/m still large, a third level of
        // aggregation pays off for small payloads.
        let t = CollectiveTiming::new(World::azure(4096));
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
        let t = CollectiveTiming::new(World::azure(1024));
        let s = 256.0 * MIB;
        let two = t.two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl);
        let three = t.three_dh_time(s, Protocol::Simple, 16);
        assert!(three > two, "3DH {three} vs 2DH {two}");
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn three_dh_validates_grouping() {
        CollectiveTiming::new(World::azure(64)).three_dh_time(1024.0, Protocol::Simple, 3);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let t = CollectiveTiming::new(World::azure(1));
        assert_eq!(t.linear_time(MIB, Protocol::Simple), 0.0);
        assert_eq!(t.all_reduce_time(MIB, 1), 0.0);
        assert_eq!(t.all_gather_time(MIB, 1), 0.0);
    }

    #[test]
    fn allreduce_costs_about_twice_allgather() {
        let t = CollectiveTiming::new(World::azure(8));
        let ag = t.all_gather_time(MIB, 8);
        let ar = t.all_reduce_time(8.0 * MIB, 8);
        let ratio = ar / ag;
        assert!(ratio > 1.5 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn observed_pricing_attributes_dispatch_and_combine_separately() {
        let t = CollectiveTiming::new(World::azure(64));
        let tel = tutel_obs::Telemetry::enabled();
        // Asymmetric legs: a chunked dispatch ships a quarter of what
        // the combine returns.
        let td = t.all_to_all_time_observed(
            A2aPhase::Dispatch,
            AllToAllAlgo::Linear,
            MIB / 4.0,
            Protocol::Simple,
            &tel,
        );
        let tc = t.all_to_all_time_observed(
            A2aPhase::Combine,
            AllToAllAlgo::Linear,
            MIB,
            Protocol::Simple,
            &tel,
        );
        assert!(td < tc, "smaller dispatch must price below combine");
        let ops: Vec<(String, f64)> = tel
            .events()
            .into_iter()
            .filter_map(|e| match e {
                tutel_obs::Event::Collective(c) => Some((c.op, c.bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                ("a2a_dispatch".to_string(), MIB / 4.0),
                ("a2a_combine".to_string(), MIB),
            ],
            "each leg must land in its own op bucket"
        );
    }

    #[test]
    fn busbw_declines_with_scale_for_fixed_size() {
        let s = MIB;
        let bw64 = CollectiveTiming::new(World::azure(64)).bus_bandwidth(
            AllToAllAlgo::Linear,
            s,
            Protocol::Simple,
        );
        let bw2048 = CollectiveTiming::new(World::azure(2048)).bus_bandwidth(
            AllToAllAlgo::Linear,
            s,
            Protocol::Simple,
        );
        assert!(bw64 > 3.0 * bw2048, "bw64 {bw64} bw2048 {bw2048}");
    }
}
