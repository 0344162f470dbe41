//! Multi-chip-module (MCM) hardware and network-on-package model.
//!
//! Implements Definition 3 of the SCAR paper: an MCM AI accelerator
//! `H = {C, BW_offchip, BW_nop}` — a set of accelerator chiplets connected
//! by a network-on-package (NoP), with off-chip DRAM interfaces on the left
//! and right package columns (§III-A).
//!
//! * [`NopTopology`] — adjacency-matrix connectivity (2-D mesh with XY
//!   routing like Simba, the triangular topology of Figure 6, or arbitrary
//!   user topologies), with all-pairs hop counts and route extraction.
//! * [`McmConfig`] — the package: chiplets, topology, Table II NoP/DRAM
//!   parameters, off-chip interface placement.
//! * [`comm`] — the `Lat_com` communication model of §III-E (same-chiplet /
//!   same-package / off-chip) plus a link-level congestion estimator for
//!   the paper's δ term.
//! * [`fabric`] — the tiered [`CommModel`] behind `Lat_com`: the
//!   electrical `NopFabric` default, a wireless what-if fabric, and the
//!   optional inter-MCM tier ([`InterconnectSpec`]) that fleet dispatch
//!   prices stream migrations through.
//! * [`templates`] — every MCM organization of Figure 6.
//!
//! # Example
//!
//! ```
//! use scar_mcm::templates::{het_sides_3x3, Profile};
//! use scar_mcm::Loc;
//!
//! let mcm = het_sides_3x3(Profile::Datacenter);
//! assert_eq!(mcm.num_chiplets(), 9);
//! // one hop across the package for 1 MB:
//! let c = mcm.transfer(Loc::Chiplet(0), Loc::Chiplet(1), 1 << 20);
//! assert!(c.time_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
mod config;
pub mod fabric;
pub mod parse;
pub mod templates;
mod topology;

pub use comm::{CommCost, LinkLoads, Loc};
pub use config::{McmConfig, NopConfig, OffchipConfig};
pub use fabric::{CommModel, FabricKind, FabricParams, InterconnectSpec};
pub use topology::{ChipletId, NopTopology, TopologyError};
