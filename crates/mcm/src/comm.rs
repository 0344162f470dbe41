//! The `Lat_com` communication model (§III-E) and NoP congestion (δ).

use crate::config::McmConfig;
use crate::topology::ChipletId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A data location: on a chiplet or in off-chip DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Loc {
    /// On-package, in the L2 of the given chiplet.
    Chiplet(ChipletId),
    /// In off-chip DRAM (reached through the nearest side interface).
    Offchip,
}

/// Latency and energy of one data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CommCost {
    /// Transfer latency in seconds.
    pub time_s: f64,
    /// Transfer energy in joules.
    pub energy_j: f64,
}

impl CommCost {
    /// The zero-cost transfer (same-chiplet case of `Lat_com`).
    pub const ZERO: CommCost = CommCost {
        time_s: 0.0,
        energy_j: 0.0,
    };
}

impl McmConfig {
    /// Communication cost of moving `bytes` from `src` to `dst`, following
    /// §III-E's `Lat_com`:
    ///
    /// * same chiplet → 0;
    /// * same package → `bytes/BW_nop + n_hops·Lat_hop + δ`;
    /// * off-chip → `bytes/BW_mem + n_hops·Lat_hop + Lat_mem + δ`
    ///   (`n_hops` to the nearest side interface).
    ///
    /// `delta_s` is the NoP-conflict term δ, computed by [`LinkLoads`]
    /// from the full set of concurrent flows (pass `0.0` for an
    /// uncontended estimate).
    ///
    /// Tier resolution (hop counts) happens here; pricing is delegated to
    /// the package's [`crate::fabric::CommModel`], whose default
    /// `NopFabric` reproduces the historical inline math byte-for-byte
    /// (pinned by this module's tests and `tests/comm_model.rs`).
    pub fn transfer_with_delta(&self, src: Loc, dst: Loc, bytes: u64, delta_s: f64) -> CommCost {
        let model = self.comm_model();
        match (src, dst) {
            (Loc::Chiplet(a), Loc::Chiplet(c)) if a == c => CommCost::ZERO,
            (Loc::Chiplet(a), Loc::Chiplet(c)) => {
                let hops = self.topology().hops(a, c) as f64;
                model.on_package(bytes, hops, delta_s)
            }
            (Loc::Chiplet(a), Loc::Offchip) | (Loc::Offchip, Loc::Chiplet(a)) => {
                let (_, hops) = self.nearest_interface(a);
                model.off_chip(bytes, hops as f64, delta_s)
            }
            // data already resident off-chip: nothing moves
            (Loc::Offchip, Loc::Offchip) => CommCost::ZERO,
        }
    }

    /// [`McmConfig::transfer_with_delta`] with δ = 0.
    pub fn transfer(&self, src: Loc, dst: Loc, bytes: u64) -> CommCost {
        self.transfer_with_delta(src, dst, bytes, 0.0)
    }
}

/// Link-level NoP traffic accounting for the δ congestion term.
///
/// The scheduler registers every flow of a time window, then asks for each
/// flow's δ: the serialization delay induced by *other* traffic crossing
/// the flow's busiest shared link (plus DRAM-port sharing for off-chip
/// flows). This is a store-and-forward queuing approximation — coarse, but
/// it penalizes schedules that funnel concurrent models through the same
/// interposer links, which is the behaviour the paper's δ exists to model.
#[derive(Debug, Clone)]
pub struct LinkLoads<'a> {
    mcm: &'a McmConfig,
    link_bytes: HashMap<(ChipletId, ChipletId), f64>,
    dram_bytes: f64,
}

impl<'a> LinkLoads<'a> {
    /// Creates an empty traffic ledger for `mcm`.
    pub fn new(mcm: &'a McmConfig) -> Self {
        Self {
            mcm,
            link_bytes: HashMap::new(),
            dram_bytes: 0.0,
        }
    }

    fn route_of(&self, src: Loc, dst: Loc) -> Vec<(ChipletId, ChipletId)> {
        let topo = self.mcm.topology();
        match (src, dst) {
            (Loc::Chiplet(a), Loc::Chiplet(b)) => topo.route_links(a, b),
            (Loc::Chiplet(a), Loc::Offchip) => {
                let (itf, _) = self.mcm.nearest_interface(a);
                topo.route_links(a, itf)
            }
            (Loc::Offchip, Loc::Chiplet(a)) => {
                let (itf, _) = self.mcm.nearest_interface(a);
                topo.route_links(itf, a)
            }
            (Loc::Offchip, Loc::Offchip) => Vec::new(),
        }
    }

    /// Registers a flow of `bytes` from `src` to `dst`.
    pub fn record(&mut self, src: Loc, dst: Loc, bytes: u64) {
        for link in self.route_of(src, dst) {
            *self.link_bytes.entry(link).or_insert(0.0) += bytes as f64;
        }
        if matches!(src, Loc::Offchip) || matches!(dst, Loc::Offchip) {
            self.dram_bytes += bytes as f64;
        }
    }

    /// The δ term for a flow: waiting time behind other traffic on the
    /// flow's busiest link, plus its share of DRAM-port queuing when the
    /// flow touches off-chip memory.
    pub fn delta_for(&self, src: Loc, dst: Loc, bytes: u64) -> f64 {
        let b = bytes as f64;
        let busiest = self
            .route_of(src, dst)
            .iter()
            .map(|l| self.link_bytes.get(l).copied().unwrap_or(0.0))
            .fold(0.0_f64, f64::max);
        let mut delta = (busiest - b).max(0.0) / self.mcm.nop.bw_bytes_per_s;
        if matches!(src, Loc::Offchip) || matches!(dst, Loc::Offchip) {
            delta += (self.dram_bytes - b).max(0.0) / self.mcm.offchip.bw_bytes_per_s;
        }
        delta
    }

    /// Total bytes recorded against off-chip DRAM.
    pub fn dram_bytes(&self) -> f64 {
        self.dram_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{het_sides_3x3, Profile};

    fn mcm() -> McmConfig {
        het_sides_3x3(Profile::Datacenter)
    }

    #[test]
    fn same_chiplet_is_free() {
        let m = mcm();
        assert_eq!(
            m.transfer(Loc::Chiplet(4), Loc::Chiplet(4), 1 << 20),
            CommCost::ZERO
        );
        assert_eq!(
            m.transfer(Loc::Offchip, Loc::Offchip, 1 << 20),
            CommCost::ZERO
        );
    }

    #[test]
    fn nop_latency_matches_formula() {
        let m = mcm();
        let bytes = 1_000_000u64;
        let c = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), bytes);
        let expect = bytes as f64 / 100e9 + 4.0 * 35e-9;
        assert!((c.time_s - expect).abs() < 1e-12);
        let e_expect = bytes as f64 * 4.0 * 16.32e-12;
        assert!((c.energy_j - e_expect).abs() < 1e-15);
    }

    #[test]
    fn offchip_includes_dram_latency() {
        let m = mcm();
        let bytes = 64_000u64;
        // chiplet 4 (center) is 1 hop from a side interface
        let c = m.transfer(Loc::Offchip, Loc::Chiplet(4), bytes);
        let expect = bytes as f64 / 64e9 + 1.0 * 35e-9 + 200e-9;
        assert!(
            (c.time_s - expect).abs() < 1e-12,
            "{} vs {expect}",
            c.time_s
        );
    }

    #[test]
    fn offchip_energy_dominates_nop_energy() {
        let m = mcm();
        let b = 1 << 20;
        let on = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), b);
        let off = m.transfer(Loc::Chiplet(0), Loc::Offchip, b);
        assert!(off.energy_j > on.energy_j * 5.0);
    }

    #[test]
    fn more_hops_cost_more() {
        let m = mcm();
        let b = 1 << 16;
        let near = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), b);
        let far = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), b);
        assert!(far.time_s > near.time_s);
        assert!(far.energy_j > near.energy_j);
    }

    #[test]
    fn delta_grows_with_contention() {
        let m = mcm();
        let mut loads = LinkLoads::new(&m);
        let b = 10_000_000u64;
        loads.record(Loc::Chiplet(0), Loc::Chiplet(2), b);
        let before = loads.delta_for(Loc::Chiplet(0), Loc::Chiplet(2), b);
        assert_eq!(before, 0.0); // alone on its route
                                 // a second flow sharing link (1,2)
        loads.record(Loc::Chiplet(1), Loc::Chiplet(2), b);
        let after = loads.delta_for(Loc::Chiplet(0), Loc::Chiplet(2), b);
        assert!(after > 0.0);
    }

    #[test]
    fn dram_port_is_shared() {
        let m = mcm();
        let mut loads = LinkLoads::new(&m);
        let b = 50_000_000u64;
        loads.record(Loc::Offchip, Loc::Chiplet(0), b);
        loads.record(Loc::Offchip, Loc::Chiplet(8), b);
        // disjoint NoP routes, but both queue at DRAM
        let d = loads.delta_for(Loc::Offchip, Loc::Chiplet(0), b);
        assert!((d - b as f64 / 64e9).abs() < 1e-9, "{d}");
        assert_eq!(loads.dram_bytes(), 2.0 * b as f64);
    }

    #[test]
    fn transfer_scales_linearly_in_bytes() {
        let m = mcm();
        let small = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), 1000);
        let large = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), 100_000);
        assert!(large.energy_j > small.energy_j * 90.0);
    }
}
