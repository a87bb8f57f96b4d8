use super::{calib, Seconds};

/// NCCL transfer protocol.
///
/// The paper's MSCCL-optimized 2DH All-to-All selects between the
/// default (`Simple`) protocol and `LL128`: LL128 has much lower
/// per-message latency but caps bandwidth at 120/128 of line rate, so
/// the optimal choice depends on message size (Figure 21).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// Default NCCL protocol: full bandwidth, higher latency.
    #[default]
    Simple,
    /// Low-latency 128-byte-flit protocol: ~94 % bandwidth, low latency.
    Ll128,
}

/// Analytic α–β model of one link class (NVLink or InfiniBand) with a
/// message-size-dependent effective bandwidth.
///
/// The transfer time of a `size`-byte message is
/// `α + per_msg + size / (bw · size/(size + half))`: the `size/(size+half)`
/// factor reproduces the under-utilized-bandwidth curve of the paper's
/// Figure 6 — small messages cannot saturate high-speed links, which is
/// the entire motivation for 2DH All-to-All.
///
/// # Example
///
/// ```
/// use tutel::cost::{LinkModel, Protocol};
///
/// let ib = LinkModel::hdr_infiniband();
/// let small = ib.effective_bandwidth(4.0 * 1024.0, Protocol::Simple);
/// let large = ib.effective_bandwidth(256.0 * 1024.0 * 1024.0, Protocol::Simple);
/// assert!(large > 10.0 * small);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Base latency per operation, seconds.
    pub alpha: Seconds,
    /// Per-message (per-peer) overhead with the Simple protocol, seconds.
    pub per_msg_simple: Seconds,
    /// Per-message overhead with LL128, seconds.
    pub per_msg_ll128: Seconds,
    /// Peak unidirectional bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Message size at which half of peak bandwidth is reached, bytes.
    pub msg_half: f64,
}

impl LinkModel {
    /// 3rd-generation NVLink/NVSwitch (intra-node), per-GPU.
    pub fn nvlink() -> Self {
        LinkModel {
            alpha: calib::NVLINK_ALPHA,
            per_msg_simple: 0.5e-6,
            per_msg_ll128: 0.3e-6,
            bandwidth: calib::NVLINK_BW,
            msg_half: calib::NVLINK_MSG_HALF,
        }
    }

    /// HDR InfiniBand 200 Gb/s (inter-node), per GPU/NIC pair.
    pub fn hdr_infiniband() -> Self {
        LinkModel {
            alpha: calib::IB_ALPHA,
            per_msg_simple: calib::IB_MSG_OVERHEAD_SIMPLE,
            per_msg_ll128: calib::IB_MSG_OVERHEAD_LL128,
            bandwidth: calib::IB_BW,
            msg_half: calib::IB_MSG_HALF,
        }
    }

    /// Per-message fixed overhead under `protocol`.
    pub fn per_msg(&self, protocol: Protocol) -> Seconds {
        match protocol {
            Protocol::Simple => self.per_msg_simple,
            Protocol::Ll128 => self.per_msg_ll128,
        }
    }

    /// Peak bandwidth under `protocol`, bytes/s.
    pub fn peak_bandwidth(&self, protocol: Protocol) -> f64 {
        match protocol {
            Protocol::Simple => self.bandwidth,
            Protocol::Ll128 => self.bandwidth * calib::LL128_BW_FRACTION,
        }
    }

    /// Effective achieved bandwidth (bytes/s) for messages of `size`
    /// bytes, i.e. `size / transfer_time` ignoring the one-time α.
    pub fn effective_bandwidth(&self, size: f64, protocol: Protocol) -> f64 {
        if size <= 0.0 {
            return 0.0;
        }
        size / (self.per_msg(protocol) + size / self.saturated_bandwidth(size, protocol))
    }

    /// Bandwidth after the message-size saturation curve (no per-message
    /// overhead), bytes/s.
    pub fn saturated_bandwidth(&self, size: f64, protocol: Protocol) -> f64 {
        self.peak_bandwidth(protocol) * size / (size + self.msg_half)
    }

    /// Time to push `count` messages of `size` bytes each through this
    /// link serially (the per-NIC serialization of sends to distinct
    /// peers), excluding the one-time α.
    pub fn burst_time(&self, count: usize, size: f64, protocol: Protocol) -> Seconds {
        if count == 0 || size <= 0.0 {
            return 0.0;
        }
        count as f64 * (self.per_msg(protocol) + size / self.saturated_bandwidth(size, protocol))
    }

    /// One-time base latency.
    pub fn base_latency(&self) -> Seconds {
        self.alpha
    }
}

/// Fabric contention factor for a job spanning `nnodes` nodes: effective
/// inter-node bandwidth divides by this. Reproduces the gentle busbw
/// decline with scale in Figure 6b.
pub fn fabric_contention(nnodes: usize) -> f64 {
    (nnodes.max(1) as f64).powf(calib::FABRIC_CONTENTION_EXP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_underutilize_bandwidth() {
        let ib = LinkModel::hdr_infiniband();
        let eff_512b = ib.effective_bandwidth(512.0, Protocol::Simple);
        let eff_1m = ib.effective_bandwidth(1024.0 * 1024.0, Protocol::Simple);
        let eff_256m = ib.effective_bandwidth(256.0 * 1024.0 * 1024.0, Protocol::Simple);
        assert!(eff_512b < eff_1m && eff_1m < eff_256m);
        // Large messages approach peak.
        assert!(eff_256m > 0.9 * ib.bandwidth);
        // Tiny messages achieve only a small fraction of peak.
        assert!(eff_512b < 0.05 * ib.bandwidth);
    }

    #[test]
    fn ll128_wins_small_loses_large() {
        let ib = LinkModel::hdr_infiniband();
        let small = 8.0 * 1024.0;
        let large = 256.0 * 1024.0 * 1024.0;
        assert!(
            ib.effective_bandwidth(small, Protocol::Ll128)
                > ib.effective_bandwidth(small, Protocol::Simple)
        );
        assert!(
            ib.effective_bandwidth(large, Protocol::Ll128)
                < ib.effective_bandwidth(large, Protocol::Simple)
        );
    }

    #[test]
    fn nvlink_is_faster_than_ib() {
        let nv = LinkModel::nvlink();
        let ib = LinkModel::hdr_infiniband();
        let size = 1024.0 * 1024.0;
        assert!(
            nv.effective_bandwidth(size, Protocol::Simple)
                > 3.0 * ib.effective_bandwidth(size, Protocol::Simple)
        );
    }

    #[test]
    fn burst_time_scales_with_count() {
        let ib = LinkModel::hdr_infiniband();
        let one = ib.burst_time(1, 4096.0, Protocol::Simple);
        let many = ib.burst_time(100, 4096.0, Protocol::Simple);
        assert!((many - 100.0 * one).abs() < 1e-12);
        assert_eq!(ib.burst_time(0, 4096.0, Protocol::Simple), 0.0);
    }

    #[test]
    fn contention_grows_slowly_with_nodes() {
        assert_eq!(fabric_contention(1), 1.0);
        let c256 = fabric_contention(256);
        assert!(c256 > 1.2 && c256 < 2.5, "c256 = {c256}");
    }
}
