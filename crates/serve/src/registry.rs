//! The policy registry: serving policies constructed from config strings.
//!
//! `serve_sim`, the bench binaries, and the replay harness all need to
//! turn *names* (from an environment variable, a CLI flag, a JSON config,
//! a recorded [`ScheduleArtifact`](scar_core::ScheduleArtifact)) into
//! scheduler values. [`PolicyRegistry`] is the one front door for that: a
//! closed view of the zoo catalog ([`catalog`](crate::catalog)), whose
//! cards are the one list of policy names, instead of a per-policy
//! `match` duplicated by every tool that reads a config:
//!
//! * [`PolicyRegistry::with_builtins`] serves the catalog's first three
//!   cards, the paper schedulers (`"SCAR"`, `"Standalone"`, `"NN-baton"`);
//! * [`PolicyRegistry::with_zoo`] serves all six cards;
//! * lookups are case-insensitive, and an unknown name reports the
//!   available set instead of panicking.
//!
//! A scheduler outside the catalog serves through
//! [`ServeSim::with_scheduler`](crate::ServeSim::with_scheduler).
//!
//! Construction receives the [`ServeConfig`] so structural knobs that
//! live on the configuration (SCAR's `nsplits` and search driver) apply
//! to the constructed scheduler; configuration-free schedulers ignore it.
//!
//! ```
//! use scar_serve::{PolicyRegistry, ServeConfig};
//!
//! let registry = PolicyRegistry::with_builtins();
//! let cfg = ServeConfig::default();
//! let scheduler = registry.build("scar", &cfg).expect("built-in");
//! assert_eq!(scheduler.name(), "SCAR");
//! assert!(registry.build("no-such-policy", &cfg).is_err());
//! ```

use crate::sim::ServeConfig;
use crate::zoo::{ZooCard, CATALOG};
use scar_core::baselines::{NnBaton, Standalone};
use scar_core::{NsgaScar, Scar, ScarBuilder, Scheduler};
use std::fmt;

/// Lookup failure: the requested policy name is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// The name that failed to resolve.
    pub requested: String,
    /// Every registered name, in catalog order.
    pub known: Vec<String>,
}

impl fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown serving policy {:?}; registered policies: {}",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// A SCAR builder carrying `cfg`'s structural knobs (window splits and
/// search driver): the base of every SCAR-family policy.
fn scar_builder(cfg: &ServeConfig) -> ScarBuilder {
    Scar::builder()
        .nsplits(cfg.nsplits)
        .search(cfg.search.clone())
}

/// The policies of a prefix of the zoo catalog, built by name (see the
/// module docs).
///
/// Names are matched case-insensitively but reported in their card
/// spelling, which equals the constructed scheduler's
/// [`Scheduler::name`].
#[derive(Debug)]
pub struct PolicyRegistry {
    cards: &'static [ZooCard],
}

impl PolicyRegistry {
    /// The standard registry: the three paper schedulers under their
    /// report names. `"SCAR"` takes its window splits and search driver
    /// from the [`ServeConfig`]; the baselines are configuration-free.
    pub fn with_builtins() -> Self {
        Self {
            cards: &CATALOG[..3],
        }
    }

    /// The zoo registry: the three paper schedulers of
    /// [`PolicyRegistry::with_builtins`] plus the zoo members —
    /// `"NSGA-SCAR"` (NSGA-II selection in SCAR's pipeline) and two named
    /// SCAR configurations, `"Merged-Pipeline"` and `"SCAR-splice"` —
    /// each reading the structural knobs ([`ServeConfig::nsplits`],
    /// [`ServeConfig::search`]) it honors. One card per name in
    /// [`catalog`](crate::catalog).
    pub fn with_zoo() -> Self {
        Self { cards: &CATALOG }
    }

    /// Builds the scheduler registered under `name` (case-insensitive).
    ///
    /// # Errors
    ///
    /// [`UnknownPolicy`] (listing the registered names) when nothing is
    /// registered under `name`.
    pub fn build(
        &self,
        name: &str,
        cfg: &ServeConfig,
    ) -> Result<Box<dyn Scheduler>, UnknownPolicy> {
        let card = self.card(name).ok_or_else(|| UnknownPolicy {
            requested: name.trim().to_string(),
            known: self.names().iter().map(|s| s.to_string()).collect(),
        })?;
        Ok(match card.name {
            "SCAR" => Box::new(scar_builder(cfg).build()),
            "Standalone" => Box::new(Standalone::new()),
            "NN-baton" => Box::new(NnBaton::new()),
            "NSGA-SCAR" => Box::new(NsgaScar::new(scar_builder(cfg).build())),
            // Scope-style merged pipeline: SCAR at nsplits = 0, one fused
            // window for every co-resident model. The split count is
            // pinned by definition; only the search driver is configurable
            "Merged-Pipeline" => Box::new(scar_builder(cfg).name(card.name).nsplits(0).build()),
            // SCAR with preemptions answered under a pre-trimmed budget
            "SCAR-splice" => Box::new(scar_builder(cfg).name(card.name).splice_trim(true).build()),
            other => unreachable!("catalog card {other:?} has no constructor"),
        })
    }

    /// Whether `name` resolves to a registered policy.
    pub fn contains(&self, name: &str) -> bool {
        self.card(name).is_some()
    }

    /// Registered names, in catalog order.
    pub fn names(&self) -> Vec<&str> {
        self.cards.iter().map(|c| c.name).collect()
    }

    fn card(&self, name: &str) -> Option<&'static ZooCard> {
        let name = name.trim();
        self.cards
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::fingerprint;
    use scar_core::ScheduleRequest;
    use scar_mcm::templates::{het_sides_3x3, Profile};
    use scar_workloads::Scenario;

    #[test]
    fn builtins_resolve_to_their_report_names() {
        let r = PolicyRegistry::with_builtins();
        let cfg = ServeConfig::default();
        for (key, expect) in [
            ("SCAR", "SCAR"),
            ("scar", "SCAR"),
            (" Standalone ", "Standalone"),
            ("nn-baton", "NN-baton"),
        ] {
            assert_eq!(r.build(key, &cfg).unwrap().name(), expect, "{key:?}");
        }
        assert_eq!(r.names(), vec!["SCAR", "Standalone", "NN-baton"]);
    }

    #[test]
    fn unknown_names_report_the_known_set() {
        let r = PolicyRegistry::with_builtins();
        let err = match r.build("round-robin", &ServeConfig::default()) {
            Ok(_) => panic!("unregistered name must not build"),
            Err(e) => e,
        };
        assert_eq!(err.requested, "round-robin");
        let msg = err.to_string();
        for name in ["SCAR", "Standalone", "NN-baton", "round-robin"] {
            assert!(msg.contains(name), "{msg:?} must mention {name}");
        }
    }

    /// Two schedulers built from the same registry name under the same
    /// config must be interchangeable for caching: identical names and
    /// identical fingerprints for any request.
    #[test]
    fn rebuilt_policies_fingerprint_identically() {
        let r = PolicyRegistry::with_builtins();
        let cfg = ServeConfig::default();
        let req = ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter));
        for name in r.names() {
            let a = r.build(name, &cfg).unwrap();
            let b = r.build(name, &cfg).unwrap();
            assert_eq!(a.name(), b.name());
            assert_eq!(
                fingerprint(&req, a.as_ref()),
                fingerprint(&req, b.as_ref()),
                "{name}: fingerprint_config must be a pure function of config"
            );
        }
    }

    /// SCAR's constructor reads the config's structural knobs: different
    /// nsplits → different fingerprint (it is configuration).
    #[test]
    fn scar_factory_applies_config_knobs() {
        let r = PolicyRegistry::with_builtins();
        let req = ScheduleRequest::new(Scenario::datacenter(1), het_sides_3x3(Profile::Datacenter));
        let one = ServeConfig {
            nsplits: 1,
            ..ServeConfig::default()
        };
        let two = ServeConfig {
            nsplits: 2,
            ..ServeConfig::default()
        };
        let a = r.build("SCAR", &one).unwrap();
        let b = r.build("SCAR", &two).unwrap();
        assert_ne!(fingerprint(&req, a.as_ref()), fingerprint(&req, b.as_ref()));
    }
}
