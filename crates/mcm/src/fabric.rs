//! Inter-MCM fabrics: the [`InterconnectSpec`] that prices §III-E's
//! `Lat_com` tiers beyond Table II.
//!
//! The paper's communication cost is a three-tier ladder — intra-chiplet
//! (free), on-package NoP, off-chip DRAM — hard-wired into Table II's
//! electrical parameters. The communication-characterization literature
//! (Musavi et al.) argues the tier structure, not the constants, is the
//! invariant: inter-chip traffic dominates at multi-chiplet scale and each
//! tier must be priced by *its* fabric. A package prices every rung —
//! intra-chiplet, on-package, off-chip and inter-MCM — from its own fields
//! ([`crate::McmConfig::transfer_with_delta`],
//! [`crate::McmConfig::inter_mcm_transfer`]), and the attached spec's
//! [`FabricKind`] picks the fabric:
//!
//! * [`FabricKind::Nop`] — the electrical baseline. Its on-package and
//!   off-chip prices are Table II's (pinned by the tests in
//!   [`crate::comm`] and `tests/comm_model.rs`), and its **inter-MCM**
//!   tier prices a package-to-package transfer as two DRAM-class SerDes
//!   crossings (write out of one package, read into the other).
//! * [`FabricKind::Wireless`] — a what-if fabric parameterized from the
//!   wireless multi-chip interconnect literature (Irabor et al.): a
//!   single-hop shared medium with flat latency (no per-hop charge, no
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
use crate::config::OffchipConfig;
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

#[cfg(test)]
mod tests {
    use super::*;

    use crate::comm::Loc;
    use crate::templates::{het_sides_3x3, Profile};
    use crate::McmConfig;

    /// Het-Sides (a 3×3 mesh with Table II links and interfaces on both
    /// side columns) under `spec`.
    fn package(spec: Option<InterconnectSpec>) -> McmConfig {
        het_sides_3x3(Profile::Datacenter).with_interconnect(spec)
    }

    #[test]
    fn nop_fabric_matches_table_ii_math() {
        for m in [package(None), package(Some(InterconnectSpec::nop()))] {
            assert_eq!(m.topology().hops(0, 8), 4);
            let c = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), 1_000_000);
            assert!((c.time_s - (1_000_000.0 / 100e9 + 4.0 * 35e-9)).abs() < 1e-12);
            assert!((c.energy_j - 1_000_000.0 * 4.0 * 16.32e-12).abs() < 1e-15);
            // the centre chiplet is one hop from its nearest interface
            let off = m.transfer(Loc::Chiplet(4), Loc::Offchip, 64_000);
            assert!((off.time_s - (64_000.0 / 64e9 + 35e-9 + 200e-9)).abs() < 1e-12);
        }
    }

    #[test]
    fn legacy_inter_mcm_tier_is_free() {
        assert_eq!(package(None).inter_mcm_transfer(1 << 30), CommCost::ZERO);
    }

    #[test]
    fn nop_inter_mcm_is_two_serdes_crossings() {
        let c = package(Some(InterconnectSpec::nop())).inter_mcm_transfer(64_000);
        assert!((c.time_s - (64_000.0 / 64e9 + 400e-9)).abs() < 1e-12);
        assert!((c.energy_j - 64_000.0 * 236.8e-12).abs() < 1e-15);
    }

    #[test]
    fn wireless_is_hop_flat() {
        let m = package(Some(InterconnectSpec::wireless()));
        let near = m.transfer(Loc::Chiplet(0), Loc::Chiplet(1), 1 << 20);
        let far = m.transfer(Loc::Chiplet(0), Loc::Chiplet(8), 1 << 20);
        assert_eq!(near, far, "wireless charges no per-hop term");
        // and the inter-MCM tier prices exactly like one on-package hop
        assert!((m.inter_mcm_transfer(1 << 20).time_s - near.time_s).abs() < 1e-15);
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
