//! The `Lat_com` communication model (§III-E) and NoP congestion (δ).
//!
//! [`McmConfig::transfer_with_delta`] prices one transfer; [`LinkLoads`]
//! is the per-window ledger its δ comes from. The tests keep the ledger it
//! replaced, which routed every flow afresh and keyed a map by link ends,
//! as the reference the dense ledger must match bit for bit.

use crate::config::McmConfig;
use crate::fabric::FabricKind;
use crate::topology::ChipletId;
use serde::{Deserialize, Serialize};

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
    /// An attached [`FabricKind::Wireless`] fabric swaps the NoP walk for
    /// its single-hop medium: no per-hop term on the package, and one
    /// wireless hop to the DRAM interface, whose port stays wired. Without
    /// one (or with the electrical [`FabricKind::Nop`]) the prices are
    /// Table II's (pinned by this module's tests and
    /// `tests/comm_model.rs`).
    pub fn transfer_with_delta(&self, src: Loc, dst: Loc, bytes: u64, delta_s: f64) -> CommCost {
        let b = bytes as f64;
        let (nop, offchip) = (&self.nop, &self.offchip);
        let wireless = self
            .interconnect()
            .filter(|spec| spec.kind == FabricKind::Wireless)
            .map(|spec| spec.params);
        match (src, dst) {
            (Loc::Chiplet(a), Loc::Chiplet(c)) if a == c => CommCost::ZERO,
            (Loc::Chiplet(a), Loc::Chiplet(c)) => {
                let hops = self.topology().hops(a, c) as f64;
                match wireless {
                    None => CommCost {
                        time_s: b / nop.bw_bytes_per_s + hops * nop.hop_latency_s + delta_s,
                        energy_j: b * hops * nop.energy_pj_per_byte_hop * 1e-12,
                    },
                    Some(link) => CommCost {
                        time_s: b / link.bw_bytes_per_s + link.latency_s + delta_s,
                        energy_j: b * link.energy_pj_per_byte * 1e-12,
                    },
                }
            }
            (Loc::Chiplet(a), Loc::Offchip) | (Loc::Offchip, Loc::Chiplet(a)) => {
                let hops = self.nearest_interface(a).1 as f64;
                match wireless {
                    None => CommCost {
                        time_s: b / offchip.bw_bytes_per_s
                            + hops * nop.hop_latency_s
                            + offchip.latency_s
                            + delta_s,
                        energy_j: b
                            * (offchip.energy_pj_per_byte + hops * nop.energy_pj_per_byte_hop)
                            * 1e-12,
                    },
                    Some(link) => CommCost {
                        time_s: b / offchip.bw_bytes_per_s
                            + link.latency_s
                            + offchip.latency_s
                            + delta_s,
                        energy_j: b
                            * (offchip.energy_pj_per_byte + link.energy_pj_per_byte)
                            * 1e-12,
                    },
                }
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
///
/// The ledger is dense: one byte count per directed link, indexed by the
/// link ids the package numbered when it was built, so a flow walks its
/// package's precomputed route tree and neither [`LinkLoads::record`] nor
/// [`LinkLoads::delta_for`] allocates. Off-chip ends resolve to the
/// chiplet's nearest side interface.
#[derive(Debug, Clone)]
pub struct LinkLoads<'a> {
    mcm: &'a McmConfig,
    link_bytes: Vec<f64>,
    dram_bytes: f64,
}

impl<'a> LinkLoads<'a> {
    /// Creates an empty traffic ledger for `mcm`.
    pub fn new(mcm: &'a McmConfig) -> Self {
        Self {
            mcm,
            link_bytes: vec![0.0; mcm.topology().links().len()],
            dram_bytes: 0.0,
        }
    }

    /// Ids of the links a flow from `src` to `dst` crosses, each once, in
    /// no particular order.
    fn route_of(&self, src: Loc, dst: Loc) -> impl Iterator<Item = usize> + 'a {
        let mcm = self.mcm;
        let ends = match (src, dst) {
            (Loc::Chiplet(a), Loc::Chiplet(b)) => Some((a, b)),
            (Loc::Chiplet(a), Loc::Offchip) => Some((a, mcm.nearest_interface(a).0)),
            (Loc::Offchip, Loc::Chiplet(a)) => Some((mcm.nearest_interface(a).0, a)),
            (Loc::Offchip, Loc::Offchip) => None,
        };
        ends.into_iter()
            .flat_map(move |(a, b)| mcm.topology().route_link_ids(a, b))
    }

    /// Registers a flow of `bytes` from `src` to `dst`.
    pub fn record(&mut self, src: Loc, dst: Loc, bytes: u64) {
        for link in self.route_of(src, dst) {
            self.link_bytes[link] += bytes as f64;
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
        // the loads are finite and non-negative, so the order of the fold
        // cannot change its result
        let busiest = self
            .route_of(src, dst)
            .map(|l| self.link_bytes[l])
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
    use crate::templates::{
        all_3x3, het_2x2, het_cross_6x6, het_sides_3x3, het_t_3x3, simba_t_3x3, Profile,
    };
    use crate::NopTopology;
    use scar_maestro::{ChipletConfig, Dataflow};
    use std::collections::HashMap;

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

    /// The ledger before routes were cached, kept as the reference the
    /// dense ledger must match bit for bit: a fresh route `Vec` per flow
    /// and one `HashMap` entry per link touched.
    struct ReferenceLoads<'a> {
        mcm: &'a McmConfig,
        link_bytes: HashMap<(ChipletId, ChipletId), f64>,
        dram_bytes: f64,
    }

    impl<'a> ReferenceLoads<'a> {
        fn new(mcm: &'a McmConfig) -> Self {
            Self {
                mcm,
                link_bytes: HashMap::new(),
                dram_bytes: 0.0,
            }
        }

        fn route_links(&self, a: ChipletId, b: ChipletId) -> Vec<(ChipletId, ChipletId)> {
            let path = self.mcm.topology().route(a, b);
            path.windows(2).map(|w| (w[0], w[1])).collect()
        }

        fn route_of(&self, src: Loc, dst: Loc) -> Vec<(ChipletId, ChipletId)> {
            match (src, dst) {
                (Loc::Chiplet(a), Loc::Chiplet(b)) => self.route_links(a, b),
                (Loc::Chiplet(a), Loc::Offchip) => {
                    let (itf, _) = self.mcm.nearest_interface(a);
                    self.route_links(a, itf)
                }
                (Loc::Offchip, Loc::Chiplet(a)) => {
                    let (itf, _) = self.mcm.nearest_interface(a);
                    self.route_links(itf, a)
                }
                (Loc::Offchip, Loc::Offchip) => Vec::new(),
            }
        }

        fn record(&mut self, src: Loc, dst: Loc, bytes: u64) {
            for link in self.route_of(src, dst) {
                *self.link_bytes.entry(link).or_insert(0.0) += bytes as f64;
            }
            if matches!(src, Loc::Offchip) || matches!(dst, Loc::Offchip) {
                self.dram_bytes += bytes as f64;
            }
        }

        fn delta_for(&self, src: Loc, dst: Loc, bytes: u64) -> f64 {
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
    }

    /// Every routing family the ledger meets: the four 3×3 meshes (XY),
    /// both triangular templates and a custom ring (BFS), the 6×6 cross
    /// and the 2×2 motivational package.
    fn packages() -> Vec<McmConfig> {
        let mut v = all_3x3(Profile::Datacenter);
        v.push(het_t_3x3(Profile::ArVr));
        v.push(simba_t_3x3(Profile::Datacenter, Dataflow::NvdlaLike));
        v.push(het_cross_6x6(Profile::Datacenter));
        v.push(het_2x2(Profile::Datacenter));
        let ring = (0..4)
            .map(|i| {
                (0..4)
                    .map(|j| (i + 1) % 4 == j || (j + 1) % 4 == i)
                    .collect()
            })
            .collect();
        v.push(McmConfig::new(
            "ring",
            vec![ChipletConfig::arvr(Dataflow::NvdlaLike); 4],
            NopTopology::from_adjacency(ring).unwrap(),
            vec![0, 2],
        ));
        v
    }

    #[test]
    fn route_link_ids_name_the_route_hops() {
        for m in packages() {
            let t = m.topology();
            for a in 0..t.num_nodes() {
                for b in 0..t.num_nodes() {
                    let ends: Vec<_> = t.route_link_ids(a, b).map(|l| t.links()[l]).collect();
                    let mut hops: Vec<_> = t.route(a, b).windows(2).map(|w| (w[0], w[1])).collect();
                    hops.reverse(); // the ids walk the route back from its end
                    assert_eq!(ends, hops, "{} route {a}→{b}", m.name());
                }
            }
        }
    }

    /// splitmix64: a dependency-free seeded stream for the flow sequences.
    struct Flows(u64);

    impl Flows {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A chiplet in three draws of four, DRAM in the fourth.
        fn loc(&mut self, n: usize) -> Loc {
            match self.next() % 4 {
                0 => Loc::Offchip,
                _ => Loc::Chiplet((self.next() % n as u64) as usize),
            }
        }

        /// Segment-sized transfers, with an occasional empty one.
        fn bytes(&mut self) -> u64 {
            match self.next() % 16 {
                0 => 0,
                _ => self.next() % 50_000_000,
            }
        }
    }

    /// Records a seeded window's worth of flows into both ledgers, asking
    /// each for δ as the evaluator does (after every flow is in) and also
    /// midway, and asserts equal bits throughout.
    fn assert_ledgers_agree(m: &McmConfig, seed: u64) {
        let n = m.num_chiplets();
        let mut dense = LinkLoads::new(m);
        let mut reference = ReferenceLoads::new(m);
        let mut flows = Flows(seed);
        let sequence: Vec<(Loc, Loc, u64)> = (0..60)
            .map(|_| (flows.loc(n), flows.loc(n), flows.bytes()))
            .collect();
        let check = |dense: &LinkLoads<'_>, reference: &ReferenceLoads<'_>| {
            for &(src, dst, bytes) in &sequence {
                let (d, r) = (
                    dense.delta_for(src, dst, bytes),
                    reference.delta_for(src, dst, bytes),
                );
                assert_eq!(
                    d.to_bits(),
                    r.to_bits(),
                    "{} δ {src:?}→{dst:?} {bytes} B (seed {seed})",
                    m.name()
                );
            }
            assert_eq!(dense.dram_bytes().to_bits(), reference.dram_bytes.to_bits());
        };
        for (i, &(src, dst, bytes)) in sequence.iter().enumerate() {
            dense.record(src, dst, bytes);
            reference.record(src, dst, bytes);
            if i == sequence.len() / 2 {
                check(&dense, &reference);
            }
        }
        check(&dense, &reference);
    }

    #[test]
    fn dense_ledger_matches_the_reference_bit_for_bit() {
        for m in packages() {
            for seed in 0..16 {
                assert_ledgers_agree(&m, seed);
            }
        }
    }
}
