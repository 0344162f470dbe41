//! Tiered communication fabrics: §III-E's `Lat_com` lifted into a
//! swappable [`CommModel`].
//!
//! The paper's communication cost is a three-tier ladder — intra-chiplet
//! (free), on-package NoP, off-chip DRAM — hard-wired into Table II's
//! electrical parameters. The communication-characterization literature
//! (Musavi et al.) argues the tier structure, not the constants, is the
//! invariant: inter-chip traffic dominates at multi-chiplet scale and each
//! tier must be priced by *its* fabric. This module enum-dispatches the
//! pricing of every rung — intra-chiplet, on-package, off-chip and
//! inter-MCM — through one [`CommModel`]:
//!
//! * [`CommModel::NopFabric`] — the electrical baseline. Its on-package
//!   and off-chip arms are byte-for-byte the math that used to live inline
//!   in `McmConfig::transfer_with_delta` (pinned by the tests in
//!   [`crate::comm`] and `tests/comm_model.rs`), and its **inter-MCM**
//!   tier, when enabled, prices a package-to-package transfer as two
//!   DRAM-class SerDes crossings (write out of one package, read into the
//!   other).
//! * [`CommModel::WirelessFabric`] — a what-if fabric parameterized from
//!   the wireless multi-chip interconnect literature (Irabor et al.):
//!   a single-hop shared medium with flat latency (no per-hop charge, no
//!   routing), lower bandwidth than wired NoP, and the same link pricing
//!   on-package and between packages — the wireless argument being that
//!   package escape is free.
//!
//! A fabric is attached to an [`crate::McmConfig`] via an
//! [`InterconnectSpec`]. `None` (the default everywhere) keeps the legacy
//! behaviour exactly: electrical tiers 1–3, zero-cost inter-MCM tier, and
//! — because fingerprints fold the spec in only when present — unchanged
//! schedule-cache fingerprints.

use crate::comm::CommCost;
use crate::config::{NopConfig, OffchipConfig};
use serde::{Deserialize, Serialize};

/// Bandwidth / latency / energy of one point-to-point fabric link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FabricParams {
    /// Link bandwidth in bytes/s.
    pub bw_bytes_per_s: f64,
    /// Flat per-transfer latency in seconds (setup + flight, no per-hop
    /// term — fabrics with hop structure fold it in themselves).
    pub latency_s: f64,
    /// Transfer energy in pJ/byte.
    pub energy_pj_per_byte: f64,
}

impl FabricParams {
    /// Transfer cost of `bytes` over this link.
    pub fn transfer(&self, bytes: u64) -> CommCost {
        let b = bytes as f64;
        CommCost {
            time_s: b / self.bw_bytes_per_s + self.latency_s,
            energy_j: b * self.energy_pj_per_byte * 1e-12,
        }
    }
}

/// Which fabric family prices the package's links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricKind {
    /// Electrical: Table II NoP/DRAM on-package, SerDes between packages.
    Nop,
    /// Wireless single-hop shared medium (Irabor et al. what-if).
    Wireless,
}

/// An inter-MCM interconnect attached to an [`crate::McmConfig`].
///
/// Absent (the default), the package keeps the legacy electrical tiers and
/// a zero-cost inter-MCM tier. Present, `kind` selects the fabric family
/// and `params` prices the inter-MCM link; [`FabricKind::Wireless`]
/// additionally swaps the *on-package* NoP pricing for the wireless
/// medium, so schedules themselves shift — a deliberate what-if.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Fabric family.
    pub kind: FabricKind,
    /// Inter-MCM link parameters (and, for wireless, the on-package
    /// medium too).
    pub params: FabricParams,
}

impl InterconnectSpec {
    /// The electrical inter-MCM fabric: a package-to-package transfer
    /// crosses two DRAM-class SerDes interfaces (write out, read in), so
    /// bandwidth matches Table II's off-chip 64 GB/s while latency and
    /// energy double.
    pub fn nop() -> Self {
        let off = OffchipConfig::default();
        Self {
            kind: FabricKind::Nop,
            params: FabricParams {
                bw_bytes_per_s: off.bw_bytes_per_s,
                latency_s: 2.0 * off.latency_s,
                energy_pj_per_byte: 2.0 * off.energy_pj_per_byte,
            },
        }
    }

    /// The wireless what-if fabric, parameterized from the wireless
    /// multi-chip interconnect literature: a 160 Gb/s shared medium with a
    /// flat 10 ns flight latency (single hop, no routing) at 1 pJ/bit —
    /// less bandwidth than wired NoP, but distance-flat and identical
    /// on-package and between packages.
    pub fn wireless() -> Self {
        Self {
            kind: FabricKind::Wireless,
            params: FabricParams {
                bw_bytes_per_s: 20e9,
                latency_s: 10e-9,
                energy_pj_per_byte: 1.0 * 8.0,
            },
        }
    }

    /// Short label for reports and artifacts (`"nop"` / `"wireless"`).
    pub fn label(&self) -> &'static str {
        match self.kind {
            FabricKind::Nop => "nop",
            FabricKind::Wireless => "wireless",
        }
    }

    /// Parses a fabric spec as used by `SCAR_REPLAY_FABRIC`: `"none"` →
    /// `None`, `"nop"` / `"wireless"` → the corresponding default
    /// parameterization.
    ///
    /// # Errors
    ///
    /// Returns the offending spec string when it names no known fabric.
    pub fn parse(spec: &str) -> Result<Option<Self>, String> {
        match spec {
            "none" => Ok(None),
            "nop" => Ok(Some(Self::nop())),
            "wireless" => Ok(Some(Self::wireless())),
            other => Err(format!(
                "unknown fabric {other:?} (expected none|nop|wireless)"
            )),
        }
    }
}

/// The tiered communication model: every rung of the ladder priced by one
/// fabric.
///
/// Built by [`crate::McmConfig::comm_model`] from the package's link
/// parameters plus its optional [`InterconnectSpec`]; all variants are
/// `Copy`-cheap bundles of constants, so constructing one per transfer is
/// free in practice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CommModel {
    /// Electrical baseline: Table II NoP + DRAM, optional SerDes
    /// inter-MCM tier (`None` = legacy zero-cost tier).
    NopFabric {
        /// On-package NoP link parameters.
        nop: NopConfig,
        /// Off-chip DRAM interface parameters.
        offchip: OffchipConfig,
        /// Inter-MCM SerDes link; `None` keeps that tier free.
        inter: Option<FabricParams>,
    },
    /// Wireless shared medium on-package and between packages; DRAM
    /// access itself stays wired.
    WirelessFabric {
        /// The wireless medium's link parameters.
        link: FabricParams,
        /// Off-chip DRAM interface parameters (still electrical).
        offchip: OffchipConfig,
    },
}

impl CommModel {
    /// The fabric's short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CommModel::NopFabric { .. } => "nop",
            CommModel::WirelessFabric { .. } => "wireless",
        }
    }

    /// Tier 2 — chiplet-to-chiplet across `hops` package links, with the
    /// NoP-conflict term `delta_s` (δ) already resolved by the caller.
    pub fn on_package(&self, bytes: u64, hops: f64, delta_s: f64) -> CommCost {
        let b = bytes as f64;
        match self {
            CommModel::NopFabric { nop, .. } => CommCost {
                time_s: b / nop.bw_bytes_per_s + hops * nop.hop_latency_s + delta_s,
                energy_j: b * hops * nop.energy_pj_per_byte_hop * 1e-12,
            },
            // wireless is a single-hop broadcast medium: hop count is
            // irrelevant, latency is flat
            CommModel::WirelessFabric { link, .. } => CommCost {
                time_s: b / link.bw_bytes_per_s + link.latency_s + delta_s,
                energy_j: b * link.energy_pj_per_byte * 1e-12,
            },
        }
    }

    /// Tier 3 — through a side interface `hops` links away into off-chip
    /// DRAM.
    pub fn off_chip(&self, bytes: u64, hops: f64, delta_s: f64) -> CommCost {
        let b = bytes as f64;
        match self {
            CommModel::NopFabric { nop, offchip, .. } => CommCost {
                time_s: b / offchip.bw_bytes_per_s
                    + hops * nop.hop_latency_s
                    + offchip.latency_s
                    + delta_s,
                energy_j: b
                    * (offchip.energy_pj_per_byte + hops * nop.energy_pj_per_byte_hop)
                    * 1e-12,
            },
            // the wireless hop replaces the NoP walk to the interface;
            // DRAM port bandwidth/latency/energy stay wired
            CommModel::WirelessFabric { link, offchip } => CommCost {
                time_s: b / offchip.bw_bytes_per_s + link.latency_s + offchip.latency_s + delta_s,
                energy_j: b * (offchip.energy_pj_per_byte + link.energy_pj_per_byte) * 1e-12,
            },
        }
    }

    /// Tier 4 — package-to-package. [`CommCost::ZERO`] when the model has
    /// no inter-MCM fabric (the legacy default).
    pub fn inter_mcm(&self, bytes: u64) -> CommCost {
        match self {
            CommModel::NopFabric { inter: None, .. } => CommCost::ZERO,
            CommModel::NopFabric {
                inter: Some(link), ..
            }
            | CommModel::WirelessFabric { link, .. } => link.transfer(bytes),
        }
    }

    /// Whether the inter-MCM tier carries a real cost.
    pub fn prices_inter_mcm(&self) -> bool {
        !matches!(self, CommModel::NopFabric { inter: None, .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_fabric_matches_table_ii_math() {
        let m = CommModel::NopFabric {
            nop: NopConfig::default(),
            offchip: OffchipConfig::default(),
            inter: None,
        };
        let c = m.on_package(1_000_000, 4.0, 0.0);
        assert!((c.time_s - (1_000_000.0 / 100e9 + 4.0 * 35e-9)).abs() < 1e-12);
        assert!((c.energy_j - 1_000_000.0 * 4.0 * 16.32e-12).abs() < 1e-15);
        let off = m.off_chip(64_000, 1.0, 0.0);
        assert!((off.time_s - (64_000.0 / 64e9 + 35e-9 + 200e-9)).abs() < 1e-12);
    }

    #[test]
    fn legacy_inter_mcm_tier_is_free() {
        let m = CommModel::NopFabric {
            nop: NopConfig::default(),
            offchip: OffchipConfig::default(),
            inter: None,
        };
        assert_eq!(m.inter_mcm(1 << 30), CommCost::ZERO);
        assert!(!m.prices_inter_mcm());
    }

    #[test]
    fn nop_inter_mcm_is_two_serdes_crossings() {
        let spec = InterconnectSpec::nop();
        let m = CommModel::NopFabric {
            nop: NopConfig::default(),
            offchip: OffchipConfig::default(),
            inter: Some(spec.params),
        };
        let c = m.inter_mcm(64_000);
        assert!((c.time_s - (64_000.0 / 64e9 + 400e-9)).abs() < 1e-12);
        assert!((c.energy_j - 64_000.0 * 236.8e-12).abs() < 1e-15);
        assert!(m.prices_inter_mcm());
    }

    #[test]
    fn wireless_is_hop_flat() {
        let spec = InterconnectSpec::wireless();
        let m = CommModel::WirelessFabric {
            link: spec.params,
            offchip: OffchipConfig::default(),
        };
        let near = m.on_package(1 << 20, 1.0, 0.0);
        let far = m.on_package(1 << 20, 7.0, 0.0);
        assert_eq!(near, far, "wireless charges no per-hop term");
        // and the inter-MCM tier prices exactly like one on-package hop
        assert!((m.inter_mcm(1 << 20).time_s - near.time_s).abs() < 1e-15);
    }

    #[test]
    fn spec_parses_and_labels() {
        assert_eq!(InterconnectSpec::parse("none").unwrap(), None);
        let nop = InterconnectSpec::parse("nop").unwrap().unwrap();
        assert_eq!(nop, InterconnectSpec::nop());
        assert_eq!(nop.label(), "nop");
        let w = InterconnectSpec::parse("wireless").unwrap().unwrap();
        assert_eq!(w.label(), "wireless");
        assert!(InterconnectSpec::parse("optical").is_err());
        assert!(InterconnectSpec::parse("").is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        for spec in [InterconnectSpec::nop(), InterconnectSpec::wireless()] {
            let json = serde::write_compact(&spec.to_value());
            let v = serde::parse_value(&json).unwrap();
            let back = InterconnectSpec::from_value(&v).unwrap();
            assert_eq!(back, spec);
        }
    }
}
