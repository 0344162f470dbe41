//! The MCM package description (Definition 3).

use crate::fabric::{CommModel, InterconnectSpec};
use crate::topology::{ChipletId, NopTopology};
use scar_maestro::{ChipletConfig, Dataflow};
use serde::{Deserialize, Serialize, Value};

/// Off-chip DRAM interface parameters (Table II, 28 nm scaled).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffchipConfig {
    /// DRAM bandwidth in bytes/s (Table II: 64 GB/s).
    pub bw_bytes_per_s: f64,
    /// DRAM access latency in seconds (Table II: 200 ns).
    pub latency_s: f64,
    /// DRAM access energy in pJ/byte (Table II: 14.8 pJ/bit).
    pub energy_pj_per_byte: f64,
}

impl Default for OffchipConfig {
    fn default() -> Self {
        Self {
            bw_bytes_per_s: 64e9,
            latency_s: 200e-9,
            energy_pj_per_byte: 14.8 * 8.0,
        }
    }
}

/// Network-on-package link parameters (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NopConfig {
    /// Per-chiplet NoP bandwidth in bytes/s (Table II: 100 GB/s/chiplet).
    pub bw_bytes_per_s: f64,
    /// Per-hop propagation latency in seconds (Table II: 35 ns/hop).
    pub hop_latency_s: f64,
    /// Per-hop transmission energy in pJ/byte (Table II: 2.04 pJ/bit).
    pub energy_pj_per_byte_hop: f64,
}

impl Default for NopConfig {
    fn default() -> Self {
        Self {
            bw_bytes_per_s: 100e9,
            hop_latency_s: 35e-9,
            energy_pj_per_byte_hop: 2.04 * 8.0,
        }
    }
}

/// An MCM AI accelerator: Definition 3's `H = {C, BW_offchip, BW_nop}`.
///
/// Build one with the [`crate::templates`] constructors (the Figure 6
/// organizations) or assemble a custom package with [`McmConfig::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct McmConfig {
    name: String,
    chiplets: Vec<ChipletConfig>,
    topology: NopTopology,
    offchip_interfaces: Vec<ChipletId>,
    /// Off-chip DRAM parameters.
    pub offchip: OffchipConfig,
    /// NoP link parameters.
    pub nop: NopConfig,
    /// Optional inter-MCM fabric; `None` = legacy zero-cost tier.
    interconnect: Option<InterconnectSpec>,
}

// Serde is hand-written (not derived) for artifact compatibility: the
// `interconnect` key postdates persisted MCMs, so it is emitted only when
// set and tolerated when absent — the vendored serde derive would instead
// error on the missing field when loading pre-fabric artifacts.
impl Serialize for McmConfig {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("name".to_string(), self.name.to_value()),
            ("chiplets".to_string(), self.chiplets.to_value()),
            ("topology".to_string(), self.topology.to_value()),
            (
                "offchip_interfaces".to_string(),
                self.offchip_interfaces.to_value(),
            ),
            ("offchip".to_string(), self.offchip.to_value()),
            ("nop".to_string(), self.nop.to_value()),
        ];
        if let Some(spec) = &self.interconnect {
            fields.push(("interconnect".to_string(), spec.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for McmConfig {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("object", "McmConfig", v))?;
        let interconnect = match obj.iter().find(|(k, _)| k == "interconnect") {
            Some((_, v)) => Some(
                InterconnectSpec::from_value(v)
                    .map_err(|e| serde::DeError::msg(format!("McmConfig.interconnect: {e}")))?,
            ),
            None => None,
        };
        Ok(Self {
            name: serde::__field(obj, "name", "McmConfig")?,
            chiplets: serde::__field(obj, "chiplets", "McmConfig")?,
            topology: serde::__field(obj, "topology", "McmConfig")?,
            offchip_interfaces: serde::__field(obj, "offchip_interfaces", "McmConfig")?,
            offchip: serde::__field(obj, "offchip", "McmConfig")?,
            nop: serde::__field(obj, "nop", "McmConfig")?,
            interconnect,
        })
    }
}

impl McmConfig {
    /// Assembles an MCM from parts.
    ///
    /// # Panics
    ///
    /// Panics if the chiplet count does not match the topology size, if no
    /// chiplets are given, or if any off-chip interface id is out of range.
    pub fn new(
        name: impl Into<String>,
        chiplets: Vec<ChipletConfig>,
        topology: NopTopology,
        offchip_interfaces: Vec<ChipletId>,
    ) -> Self {
        assert!(!chiplets.is_empty(), "an MCM needs at least one chiplet");
        assert_eq!(
            chiplets.len(),
            topology.num_nodes(),
            "chiplet count must match topology size"
        );
        assert!(
            !offchip_interfaces.is_empty(),
            "an MCM needs at least one off-chip interface"
        );
        assert!(
            offchip_interfaces.iter().all(|&i| i < chiplets.len()),
            "off-chip interface id out of range"
        );
        Self {
            name: name.into(),
            chiplets,
            topology,
            offchip_interfaces,
            offchip: OffchipConfig::default(),
            nop: NopConfig::default(),
            interconnect: None,
        }
    }

    /// The template/organization name (e.g. `"Het-Sides"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of chiplets on the package (`|C|`).
    pub fn num_chiplets(&self) -> usize {
        self.chiplets.len()
    }

    /// The chiplet at position `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn chiplet(&self, id: ChipletId) -> &ChipletConfig {
        &self.chiplets[id]
    }

    /// All chiplets, indexed by [`ChipletId`].
    pub fn chiplets(&self) -> &[ChipletConfig] {
        &self.chiplets
    }

    /// The NoP connectivity.
    pub fn topology(&self) -> &NopTopology {
        &self.topology
    }

    /// Chiplet positions with direct off-chip DRAM interfaces.
    pub fn offchip_interfaces(&self) -> &[ChipletId] {
        &self.offchip_interfaces
    }

    /// Count of chiplets per dataflow class (`n_df_i` of Equation 1).
    pub fn dataflow_counts(&self) -> Vec<(Dataflow, usize)> {
        Dataflow::ALL
            .iter()
            .map(|&df| {
                (
                    df,
                    self.chiplets.iter().filter(|c| c.dataflow == df).count(),
                )
            })
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// One representative chiplet per distinct dataflow class present on
    /// the package, in [`Dataflow::ALL`] order.
    pub fn chiplet_classes(&self) -> Vec<ChipletConfig> {
        Dataflow::ALL
            .iter()
            .filter_map(|&df| self.chiplets.iter().find(|c| c.dataflow == df).cloned())
            .collect()
    }

    /// The nearest off-chip interface to `id` and its hop distance.
    pub fn nearest_interface(&self, id: ChipletId) -> (ChipletId, u32) {
        self.offchip_interfaces
            .iter()
            .map(|&itf| (itf, self.topology.hops(id, itf)))
            .min_by_key(|&(_, h)| h)
            .expect("at least one interface exists")
    }

    /// True if every chiplet uses the same dataflow.
    pub fn is_homogeneous(&self) -> bool {
        self.dataflow_counts().len() <= 1
    }

    /// The inter-MCM fabric, if one is attached.
    pub fn interconnect(&self) -> Option<&InterconnectSpec> {
        self.interconnect.as_ref()
    }

    /// Attaches (or, with `None`, detaches) an inter-MCM fabric.
    pub fn with_interconnect(mut self, spec: Option<InterconnectSpec>) -> Self {
        self.interconnect = spec;
        self
    }

    /// The tiered [`CommModel`] pricing this package's transfers: the
    /// electrical `NopFabric` from Table II parameters when no
    /// [`InterconnectSpec`] is attached (or a `Nop`-kind one is), the
    /// `WirelessFabric` when a wireless spec is attached.
    pub fn comm_model(&self) -> CommModel {
        use crate::fabric::FabricKind;
        match &self.interconnect {
            None => CommModel::NopFabric {
                nop: self.nop,
                offchip: self.offchip,
                inter: None,
            },
            Some(spec) => match spec.kind {
                FabricKind::Nop => CommModel::NopFabric {
                    nop: self.nop,
                    offchip: self.offchip,
                    inter: Some(spec.params),
                },
                FabricKind::Wireless => CommModel::WirelessFabric {
                    link: spec.params,
                    offchip: self.offchip,
                },
            },
        }
    }

    /// Cost of pulling `bytes` into this package from a peer MCM — the
    /// [`CommModel::inter_mcm`] tier. Zero (the legacy behaviour) when no
    /// fabric is attached.
    pub fn inter_mcm_transfer(&self, bytes: u64) -> crate::comm::CommCost {
        self.comm_model().inter_mcm(bytes)
    }

    /// Restores internal topology caches after deserialization.
    pub fn rebuild_caches(&mut self) {
        self.topology.rebuild_cache();
    }
}

impl std::fmt::Display for McmConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counts: Vec<String> = self
            .dataflow_counts()
            .iter()
            .map(|(df, n)| format!("{}×{}", n, df.short_name()))
            .collect();
        write!(f, "{} [{}]", self.name, counts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mcm_3x3() -> McmConfig {
        let chiplets = (0..9)
            .map(|i| {
                ChipletConfig::datacenter(if i % 2 == 0 {
                    Dataflow::NvdlaLike
                } else {
                    Dataflow::ShidiannaoLike
                })
            })
            .collect();
        McmConfig::new(
            "test",
            chiplets,
            NopTopology::mesh(3, 3),
            vec![0, 3, 6, 2, 5, 8],
        )
    }

    #[test]
    fn dataflow_counts_sum_to_total() {
        let m = mcm_3x3();
        let total: usize = m.dataflow_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 9);
        assert!(!m.is_homogeneous());
    }

    #[test]
    fn nearest_interface_prefers_sides() {
        let m = mcm_3x3();
        let (itf, hops) = m.nearest_interface(4); // center
        assert_eq!(hops, 1);
        assert!(m.offchip_interfaces().contains(&itf));
        let (_, h0) = m.nearest_interface(0);
        assert_eq!(h0, 0); // interfaces reach DRAM directly
    }

    #[test]
    fn chiplet_classes_are_unique_by_dataflow() {
        let m = mcm_3x3();
        let classes = m.chiplet_classes();
        assert_eq!(classes.len(), 2);
        assert_ne!(classes[0].dataflow, classes[1].dataflow);
    }

    #[test]
    #[should_panic(expected = "match topology size")]
    fn size_mismatch_panics() {
        let _ = McmConfig::new(
            "bad",
            vec![ChipletConfig::datacenter(Dataflow::NvdlaLike)],
            NopTopology::mesh(2, 2),
            vec![0],
        );
    }

    #[test]
    fn table_ii_defaults() {
        let m = mcm_3x3();
        assert_eq!(m.offchip.bw_bytes_per_s, 64e9);
        assert_eq!(m.offchip.latency_s, 200e-9);
        assert_eq!(m.nop.hop_latency_s, 35e-9);
        assert!((m.nop.energy_pj_per_byte_hop - 16.32).abs() < 1e-9);
        assert!((m.offchip.energy_pj_per_byte - 118.4).abs() < 1e-9);
    }

    #[test]
    fn display_shows_composition() {
        let s = mcm_3x3().to_string();
        assert!(s.contains("5×NVD") && s.contains("4×Shi"), "{s}");
    }

    #[test]
    fn serde_omits_absent_interconnect_and_loads_pre_fabric_json() {
        let m = mcm_3x3();
        let json = serde::write_compact(&m.to_value());
        assert!(
            !json.contains("interconnect"),
            "default MCMs must serialize exactly as before the fabric tier"
        );
        // pre-fabric artifacts (no `interconnect` key) keep loading
        let mut back = McmConfig::from_value(&serde::parse_value(&json).unwrap()).unwrap();
        back.rebuild_caches();
        assert_eq!(back, m);
        assert!(back.interconnect().is_none());
    }

    #[test]
    fn serde_round_trips_an_attached_fabric() {
        for spec in [InterconnectSpec::nop(), InterconnectSpec::wireless()] {
            let m = mcm_3x3().with_interconnect(Some(spec));
            let json = serde::write_compact(&m.to_value());
            assert!(json.contains("interconnect"));
            let mut back = McmConfig::from_value(&serde::parse_value(&json).unwrap()).unwrap();
            back.rebuild_caches();
            assert_eq!(back, m);
            assert_eq!(back.interconnect(), Some(&spec));
        }
    }

    #[test]
    fn comm_model_tracks_the_attached_fabric() {
        let m = mcm_3x3();
        assert_eq!(m.comm_model().name(), "nop");
        assert!(!m.comm_model().prices_inter_mcm());
        assert_eq!(m.inter_mcm_transfer(1 << 30).time_s, 0.0);

        let nop = m.clone().with_interconnect(Some(InterconnectSpec::nop()));
        assert_eq!(nop.comm_model().name(), "nop");
        assert!(nop.comm_model().prices_inter_mcm());
        assert!(nop.inter_mcm_transfer(1 << 20).time_s > 0.0);

        let w = m.with_interconnect(Some(InterconnectSpec::wireless()));
        assert_eq!(w.comm_model().name(), "wireless");
        assert!(w.inter_mcm_transfer(1 << 20).energy_j > 0.0);
    }
}
