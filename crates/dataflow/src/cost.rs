//! Simulated network/storage cost model for placement decisions.
//!
//! The model the paper's infrastructure section implies: bandwidth and
//! latency between workers, contention via throughput sharing, and a
//! separate storage read rate for data that lives on the master (restored
//! checkpoints, driver-produced inputs).
//!
//! All estimates are in **microseconds** — the same clock the runtime's
//! event bus uses — so scheduler estimates, the simulated transfer sleep
//! and the measured [`TaskSpan`](crate::timing::TaskSpan)s are directly
//! comparable. hpcwaas reuses the same arithmetic for DLS staging
//! predictions and cluster job placement, so every layer of the stack
//! prices a byte the same way.

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

    /// A link that costs nothing.
    pub const fn unlimited() -> Self {
        LinkCost { bandwidth_mbps: f64::INFINITY, latency_us: 0 }
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

    /// True when transfers over this link cost nothing.
    pub fn is_free(&self) -> bool {
        self.latency_us == 0 && self.bandwidth_mbps.is_infinite()
    }
}

/// Storage tier read rate: covers master-resident data (checkpoint
/// restores, driver inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageCost {
    pub read_mbps: f64,
    pub latency_us: u64,
}

impl StorageCost {
    pub const fn unlimited() -> Self {
        StorageCost { read_mbps: f64::INFINITY, latency_us: 0 }
    }

    fn read_link(&self) -> LinkCost {
        LinkCost { bandwidth_mbps: self.read_mbps, latency_us: self.latency_us }
    }
}

/// The cluster-wide cost model: one interconnect link between any worker
/// pair, and the storage tier.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Worker-to-worker link.
    pub interconnect: LinkCost,
    /// Storage tier (master-resident / restored data).
    pub storage: StorageCost,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::free()
    }
}

impl CostModel {
    /// All transfers cost nothing. Transfers are still *counted* in the
    /// [`TransferLedger`](crate::scheduler::TransferLedger).
    pub fn free() -> Self {
        CostModel { interconnect: LinkCost::unlimited(), storage: StorageCost::unlimited() }
    }

    /// Microseconds to read `bytes` from storage under `sharing`-way
    /// contention.
    pub fn storage_read_us(&self, bytes: u64, sharing: u32) -> u64 {
        self.storage.read_link().transfer_us(bytes, sharing)
    }

    /// Estimated microseconds for worker `to` to gather the given inputs
    /// (`(producer worker, bytes)`; `None` = master/storage) when
    /// `sharing` transfers contend for each link. Inputs already resident
    /// on `to` cost nothing.
    pub fn fetch_us(&self, to: usize, inputs: &[(Option<usize>, u64)], sharing: u32) -> u64 {
        inputs
            .iter()
            .map(|&(loc, bytes)| match loc {
                Some(w) if w == to => 0,
                Some(_) => self.interconnect.transfer_us(bytes, sharing),
                None => self.storage_read_us(bytes, sharing),
            })
            .sum()
    }

    /// True when no transfer in this model ever costs anything (lets the
    /// runtime skip the simulated sleep entirely).
    pub fn is_free(&self) -> bool {
        self.interconnect.is_free() && self.storage.read_link().is_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_costs_nothing() {
        let m = CostModel::free();
        assert!(m.is_free());
        assert_eq!(m.fetch_us(0, &[(Some(1), 1 << 30), (None, 1 << 30)], 4), 0);
    }

    #[test]
    fn link_transfer_includes_latency_and_bandwidth() {
        // 100 MB over a 100 MB/s link with 50 µs latency: 1 s + 50 µs.
        let l = LinkCost::new(100.0, 50);
        assert_eq!(l.transfer_us(100_000_000, 1), 1_000_050);
        // Zero bytes: nothing to set up, nothing to move.
        assert_eq!(l.transfer_us(0, 1), 0);
    }

    #[test]
    fn contention_divides_bandwidth() {
        let l = LinkCost::new(100.0, 0);
        let alone = l.transfer_us(10_000_000, 1);
        let shared = l.transfer_us(10_000_000, 4);
        assert_eq!(alone, 100_000);
        assert_eq!(shared, 400_000, "4-way sharing quarters the throughput");
    }

    #[test]
    fn storage_reads_price_master_data() {
        let m = CostModel {
            interconnect: LinkCost::new(1000.0, 50),
            storage: StorageCost { read_mbps: 2000.0, latency_us: 100 },
        };
        // (None, bytes) inputs go through the storage read link.
        assert_eq!(m.fetch_us(0, &[(None, 2_000_000)], 1), 100 + 1_000);
    }
}
