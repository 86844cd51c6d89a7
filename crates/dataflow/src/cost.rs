//! The workspace's one price for moving a byte.
//!
//! Estimates are in **microseconds** — the clock the runtime's event bus
//! uses. `hpcwaas::dls` prices its staging predictions with
//! [`LinkCost`] (claim A2). The dataflow runtime itself neither prices
//! nor counts data movement: its workers are threads of one process and
//! hand each other `Arc`s.

/// One directed link: bandwidth in MB/s (1 MB = 1e6 bytes, matching the
/// hpcwaas DLS convention) plus a fixed per-transfer latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCost {
    /// Sustained throughput in MB/s. `f64::INFINITY` means the link is
    /// free (zero transfer time beyond latency).
    pub bandwidth_mbps: f64,
    /// Fixed setup cost per transfer, microseconds.
    pub latency_us: u64,
}

impl LinkCost {
    pub const fn new(bandwidth_mbps: f64, latency_us: u64) -> Self {
        LinkCost { bandwidth_mbps, latency_us }
    }

    /// Estimated microseconds to move `bytes` when `sharing` transfers
    /// (including this one) contend for the link. Contention divides the
    /// bandwidth evenly — the classic throughput-sharing approximation.
    pub fn transfer_us(&self, bytes: u64, sharing: u32) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let effective = self.bandwidth_mbps / f64::from(sharing.max(1));
        if !effective.is_finite() || effective <= 0.0 {
            return self.latency_us;
        }
        let us = (bytes as f64 / (effective * 1e6) * 1e6).ceil() as u64;
        self.latency_us + us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_includes_latency_and_bandwidth() {
        // 100 MB over a 100 MB/s link with 50 µs latency: 1 s + 50 µs.
        let l = LinkCost::new(100.0, 50);
        assert_eq!(l.transfer_us(100_000_000, 1), 1_000_050);
        // Zero bytes: nothing to set up, nothing to move.
        assert_eq!(l.transfer_us(0, 1), 0);
        // An infinitely fast link still pays its latency.
        assert_eq!(LinkCost::new(f64::INFINITY, 7).transfer_us(1 << 30, 1), 7);
    }

    #[test]
    fn contention_divides_bandwidth() {
        let l = LinkCost::new(100.0, 0);
        let alone = l.transfer_us(10_000_000, 1);
        let shared = l.transfer_us(10_000_000, 4);
        assert_eq!(alone, 100_000);
        assert_eq!(shared, 400_000, "4-way sharing quarters the throughput");
    }
}
