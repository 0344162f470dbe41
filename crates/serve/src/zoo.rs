//! The documented scheduler zoo: a catalog of every serving policy, each
//! with a doc card, plus the JSON config-file front end for picking one.
//!
//! Modeled on scx's example-schedulers catalog: a scheduler you can't
//! answer "what does it optimize / when would I use it / would I ship
//! it?" about is a scheduler nobody will trust. The catalog's cards are
//! the one list of policy names: [`PolicyRegistry`] serves a prefix of
//! them ([`PolicyRegistry::with_zoo`] all six), so a card and its policy
//! cannot drift apart. [`render_catalog`] prints the cards (the `zoo`
//! bench bin), and DESIGN.md §14 carries the same catalog as a table.
//!
//! The config-file front end ([`PolicyFile`]) is the one way to pick a
//! serving policy by name: a JSON file names the policy and optional
//! `SchedulerConfig`-shaped structural overrides (`nsplits`, `search`).
//! Unknown policy names fail with the registry's [`UnknownPolicy`] error,
//! which lists every registered name.
//! A recorded artifact's scheduler name and configuration form a policy
//! file too: replay rebuilds every scheduler through [`PolicyFile`].

use crate::registry::{PolicyRegistry, UnknownPolicy};
use crate::sim::ServeConfig;
use scar_core::{EvoParams, Scheduler, SchedulerConfig, SearchKind};
use serde::Value;

/// One zoo entry's doc card (the scx example-schedulers idiom: overview,
/// typical use case, production readiness — per scheduler). Its name is
/// the one the registry builds it by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZooCard {
    /// Policy name (equals the constructed scheduler's
    /// [`Scheduler::name`]).
    pub name: &'static str,
    /// What the policy optimizes — its objective, in one line.
    pub optimizes: &'static str,
    /// The traffic/workload it was built for.
    pub use_case: &'static str,
    /// Production readiness, with the honest caveat where one applies.
    pub production_ready: &'static str,
}

/// The card table: [`PolicyRegistry::with_builtins`] serves the first
/// three cards, [`PolicyRegistry::with_zoo`] all of them.
pub(crate) const CATALOG: [ZooCard; 6] = [
    ZooCard {
        name: "SCAR",
        optimizes: "Scalar request metric (EDP by default) via the full \
                    MCM-Reconfig → PROV → SEG → SCHED pipeline with \
                    splice-aware preemption.",
        use_case: "The default for every mix: datacenter query traffic and \
                   AR/VR frame clocks alike (the paper's Tables IV/V).",
        production_ready: "Yes — the reference scheduler every gate in CI runs.",
    },
    ZooCard {
        name: "Standalone",
        optimizes: "Nothing jointly: each model gets the package to itself, \
                    serialized (the paper's Standalone baseline).",
        use_case: "Lower-bound comparisons and debugging single-model cost \
                   questions without co-residency effects.",
        production_ready: "Yes, as a baseline — never competitive on multi-tenant mixes.",
    },
    ZooCard {
        name: "NN-baton",
        optimizes: "Greedy per-model chiplet handoff (the NN-Baton-style \
                    baseline): fast, no window search.",
        use_case: "A stronger baseline than Standalone when search cost \
                   must be near zero.",
        production_ready: "Yes, as a baseline — no deadline or fairness awareness.",
    },
    ZooCard {
        name: "NSGA-SCAR",
        optimizes: "The (latency, energy, fairness/violation) Pareto front \
                    per window — NSGA-II non-dominated sorting + crowding \
                    distance over the full candidate cloud, knee point \
                    under the request metric.",
        use_case: "Mixes where the scalar metric hides trade-offs: energy- \
                   capped serving, straggler-sensitive co-residency, \
                   constrained-latency windows.",
        production_ready: "Experimental — deterministic and replay-safe, but \
                          selection quality is still being characterized \
                          against Table IV/V.",
    },
    ZooCard {
        name: "Merged-Pipeline",
        optimizes: "One fused pipelined allocation for all co-resident \
                    models (Scope-style): no reconfiguration boundaries, \
                    nsplits pinned to 0.",
        use_case: "Steady co-resident mixes where reconfiguration overhead \
                   dominates and every model fits the package at once.",
        production_ready: "Experimental — loses to SCAR when windowing \
                          matters (stragglers pin the fused window).",
    },
    ZooCard {
        name: "SCAR-splice",
        optimizes: "SCAR's objective with preemptions answered under a \
                    pre-trimmed search budget: splice latency over splice \
                    breadth.",
        use_case: "Preemption-heavy overload mixes where re-search wall \
                   time is itself the bottleneck.",
        production_ready: "Yes for preemption-heavy serving — cold-start \
                          scheduling is bit-identical to SCAR.",
    },
];

/// The full catalog, in the order [`PolicyRegistry::with_zoo`] lists its
/// names — one card per policy.
pub fn catalog() -> Vec<ZooCard> {
    CATALOG.to_vec()
}

/// Renders the catalog as scx-style cards (the `zoo` bin's output and
/// the source of DESIGN.md §14's table).
pub fn render_catalog() -> String {
    let mut out = String::from("# SCAR scheduler zoo\n");
    for card in catalog() {
        out.push_str(&format!(
            "\n## {}\n\n### Overview\n\n{}\n\n### Typical Use Case\n\n{}\n\n\
             ### Production Ready?\n\n{}\n",
            card.name, card.optimizes, card.use_case, card.production_ready
        ));
    }
    out
}

/// A parsed policy config file (`SCAR_POLICY_FILE`): the policy name
/// plus optional [`SchedulerConfig`]-shaped structural overrides.
///
/// ```json
/// { "policy": "NSGA-SCAR", "nsplits": 2, "search": "BruteForce" }
/// ```
///
/// `search` accepts the artifact wire forms (`"BruteForce"`,
/// `{"Evolutionary": {"population": 10, "generations": 4,
/// "mutation_rate": 0.3}}`) plus the human aliases `"brute"` and
/// `"evolutionary"` (default parameters). Omitted fields override
/// nothing, so `{ "policy": "NSGA-SCAR" }` is a whole file.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyFile {
    /// The registry name to build.
    pub policy: String,
    /// Structural overrides layered onto the serving config
    /// (`None` fields leave the config untouched).
    pub overrides: SchedulerConfig,
}

impl PolicyFile {
    /// Parses the JSON text of a policy file.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field: missing or
    /// non-string `policy`, a malformed `nsplits`/`search` (an
    /// evolutionary `population` of 0 included), an unknown
    /// key (config files with typos should fail loudly, not silently
    /// run the default), or JSON that does not parse at all.
    pub fn parse(json: &str) -> Result<Self, String> {
        let value: Value =
            serde_json::from_str(json).map_err(|e| format!("policy file is not JSON: {e}"))?;
        let object = value
            .as_object()
            .ok_or("policy file must be a JSON object")?;
        let mut policy: Option<String> = None;
        let mut overrides = SchedulerConfig::default();
        for (key, val) in object {
            match key.as_str() {
                "policy" => {
                    policy = Some(
                        val.as_str()
                            .ok_or("\"policy\" must be a string (a registry name)")?
                            .to_string(),
                    );
                }
                "nsplits" => {
                    overrides.nsplits = Some(
                        val.as_u64()
                            .ok_or("\"nsplits\" must be a non-negative integer")?
                            as usize,
                    );
                }
                "search" => {
                    overrides.search = Some(parse_search(val)?);
                }
                other => {
                    return Err(format!(
                        "unknown policy-file key {other:?} (accepted: policy, nsplits, search)"
                    ));
                }
            }
        }
        Ok(Self {
            policy: policy.ok_or("policy file must name a \"policy\"")?,
            overrides,
        })
    }

    /// Reads and parses the file at `path`.
    ///
    /// # Errors
    ///
    /// The I/O error or [`PolicyFile::parse`]'s message, prefixed with
    /// the path.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// `base` with this file's overrides applied (`None` fields leave
    /// the base untouched): the one place a [`SchedulerConfig`] is laid
    /// over a [`ServeConfig`], for config files and recorded artifacts
    /// alike.
    pub fn apply(&self, base: &ServeConfig) -> ServeConfig {
        let mut cfg = base.clone();
        if let Some(nsplits) = self.overrides.nsplits {
            cfg.nsplits = nsplits;
        }
        if let Some(search) = &self.overrides.search {
            cfg.search = search.clone();
        }
        cfg
    }

    /// Builds this file's policy from `registry` under `base` with the
    /// overrides applied.
    ///
    /// # Errors
    ///
    /// [`UnknownPolicy`] (listing every registered name) when the file
    /// names a policy the registry does not know.
    pub fn build(
        &self,
        registry: &PolicyRegistry,
        base: &ServeConfig,
    ) -> Result<Box<dyn Scheduler>, UnknownPolicy> {
        registry.build(&self.policy, &self.apply(base))
    }
}

/// Parses the `search` field (see [`PolicyFile`] for accepted forms).
fn parse_search(val: &Value) -> Result<SearchKind, String> {
    if let Some(s) = val.as_str() {
        return match s {
            "BruteForce" | "brute" | "brute-force" => Ok(SearchKind::BruteForce),
            "Evolutionary" | "evolutionary" => Ok(SearchKind::Evolutionary(EvoParams::default())),
            other => Err(format!(
                "unknown search driver {other:?} (try \"BruteForce\" or \"Evolutionary\")"
            )),
        };
    }
    let object = val
        .as_object()
        .ok_or("\"search\" must be a string or an {\"Evolutionary\": {…}} object")?;
    match object {
        [(tag, params)] if tag == "Evolutionary" => {
            let mut p = EvoParams::default();
            let fields = params
                .as_object()
                .ok_or("\"Evolutionary\" parameters must be an object")?;
            for (key, v) in fields {
                match key.as_str() {
                    "population" => {
                        // an empty population has no candidate to score
                        p.population =
                            match v.as_u64().ok_or("\"population\" must be an integer")? {
                                0 => return Err("\"population\" must be at least 1".to_string()),
                                n => n as usize,
                            };
                    }
                    "generations" => {
                        p.generations =
                            v.as_u64().ok_or("\"generations\" must be an integer")? as usize;
                    }
                    "mutation_rate" => {
                        // a probability; `1e999` parses as infinity
                        p.mutation_rate = match v.as_f64() {
                            Some(r) if (0.0..=1.0).contains(&r) => r,
                            _ => {
                                return Err(
                                    "\"mutation_rate\" must be a number in [0, 1]".to_string()
                                )
                            }
                        };
                    }
                    other => {
                        return Err(format!("unknown Evolutionary parameter {other:?}"));
                    }
                }
            }
            Ok(SearchKind::Evolutionary(p))
        }
        _ => Err("\"search\" object must have exactly the key \"Evolutionary\"".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The zoo invariant: the registry lists the cards' names in order,
    /// and every card's name builds a scheduler reporting that exact name
    /// (a card without a constructor fails here).
    #[test]
    fn catalog_matches_the_registry_exactly() {
        let registry = PolicyRegistry::with_zoo();
        let names: Vec<&str> = catalog().iter().map(|c| c.name).collect();
        assert_eq!(registry.names(), names);
        let cfg = ServeConfig::default();
        for card in catalog() {
            let s = registry.build(card.name, &cfg).expect(card.name);
            assert_eq!(s.name(), card.name, "card name must equal scheduler name");
        }
    }

    #[test]
    fn rendered_catalog_carries_every_card_section() {
        let text = render_catalog();
        for card in catalog() {
            assert!(text.contains(&format!("## {}", card.name)), "{}", card.name);
        }
        for section in [
            "### Overview",
            "### Typical Use Case",
            "### Production Ready?",
        ] {
            assert_eq!(
                text.matches(section).count(),
                catalog().len(),
                "{section} once per card"
            );
        }
    }

    #[test]
    fn policy_file_parses_and_applies_overrides() {
        let f =
            PolicyFile::parse(r#"{ "policy": "NSGA-SCAR", "nsplits": 2, "search": "BruteForce" }"#)
                .unwrap();
        assert_eq!(f.policy, "NSGA-SCAR");
        assert_eq!(f.overrides.nsplits, Some(2));
        assert_eq!(f.overrides.search, Some(SearchKind::BruteForce));
        let cfg = f.apply(&ServeConfig::default());
        assert_eq!(cfg.nsplits, 2);
        let s = f
            .build(&PolicyRegistry::with_zoo(), &ServeConfig::default())
            .unwrap();
        assert_eq!(s.name(), "NSGA-SCAR");
        // overrides are optional: a bare policy name is a valid file
        let bare = PolicyFile::parse(r#"{ "policy": "SCAR" }"#).unwrap();
        assert_eq!(bare.overrides, SchedulerConfig::default());
        assert_eq!(
            bare.apply(&ServeConfig::default()).nsplits,
            ServeConfig::default().nsplits
        );
    }

    #[test]
    fn policy_file_parses_search_variants() {
        let evo = PolicyFile::parse(
            r#"{ "policy": "SCAR",
                 "search": { "Evolutionary": { "population": 6, "generations": 2 } } }"#,
        )
        .unwrap();
        match evo.overrides.search {
            Some(SearchKind::Evolutionary(p)) => {
                assert_eq!(p.population, 6);
                assert_eq!(p.generations, 2);
                assert_eq!(p.mutation_rate, EvoParams::default().mutation_rate);
            }
            other => panic!("expected Evolutionary, got {other:?}"),
        }
        let alias = PolicyFile::parse(r#"{ "policy": "SCAR", "search": "evolutionary" }"#).unwrap();
        assert_eq!(
            alias.overrides.search,
            Some(SearchKind::Evolutionary(EvoParams::default()))
        );
    }

    #[test]
    fn malformed_policy_files_fail_loudly() {
        for (bad, needle) in [
            ("not json", "not JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{ "nsplits": 2 }"#, "must name a \"policy\""),
            (r#"{ "policy": 7 }"#, "must be a string"),
            (
                r#"{ "policy": "SCAR", "nsplits": -1 }"#,
                "non-negative integer",
            ),
            (
                r#"{ "policy": "SCAR", "search": "annealing" }"#,
                "unknown search driver",
            ),
            (
                r#"{ "policy": "SCAR", "Nsplits": 1 }"#,
                "unknown policy-file key",
            ),
            (
                r#"{ "policy": "SCAR", "search": { "Evolutionary": { "popsize": 3 } } }"#,
                "unknown Evolutionary parameter",
            ),
            (
                r#"{"policy":"SCAR","search":{"Evolutionary":{"population":0}}}"#,
                "\"population\" must be at least 1",
            ),
            (
                r#"{"policy":"SCAR","search":{"Evolutionary":{"mutation_rate":5}}}"#,
                "\"mutation_rate\" must be a number in [0, 1]",
            ),
            (
                r#"{"policy":"SCAR","search":{"Evolutionary":{"mutation_rate":-1}}}"#,
                "\"mutation_rate\" must be a number in [0, 1]",
            ),
            (
                r#"{"policy":"SCAR","search":{"Evolutionary":{"mutation_rate":1e999}}}"#,
                "\"mutation_rate\" must be a number in [0, 1]",
            ),
            (
                r#"{"policy":"SCAR","search":{"Evolutionary":{"mutation_rate":"0.3"}}}"#,
                "\"mutation_rate\" must be a number in [0, 1]",
            ),
        ] {
            let err = PolicyFile::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?} → {err:?}");
        }
    }

    /// A config file naming an unknown policy fails with [`UnknownPolicy`] and its
    /// known-names list — every zoo name included — not a panic or a
    /// silent default.
    #[test]
    fn unknown_policy_in_file_reports_the_known_names() {
        let f = PolicyFile::parse(r#"{ "policy": "simulated-annealing" }"#).unwrap();
        let err = match f.build(&PolicyRegistry::with_zoo(), &ServeConfig::default()) {
            Ok(_) => panic!("an unknown policy must not build"),
            Err(e) => e,
        };
        assert_eq!(err.requested, "simulated-annealing");
        let msg = err.to_string();
        for name in [
            "SCAR",
            "Standalone",
            "NN-baton",
            "NSGA-SCAR",
            "Merged-Pipeline",
            "SCAR-splice",
        ] {
            assert!(msg.contains(name), "{msg:?} must list {name}");
        }
    }

    #[test]
    fn zoo_policies_build_with_config_knobs() {
        let registry = PolicyRegistry::with_zoo();
        let cfg = ServeConfig {
            nsplits: 3,
            ..ServeConfig::default()
        };
        let nsga = registry.build("nsga-scar", &cfg).unwrap();
        assert_eq!(nsga.config().nsplits, Some(3));
        let merged = registry.build("merged-pipeline", &cfg).unwrap();
        assert_eq!(
            merged.config().nsplits,
            Some(0),
            "merged pipeline pins the fused window regardless of config"
        );
        let splice = registry.build("scar-splice", &cfg).unwrap();
        assert_eq!(splice.config().nsplits, Some(3));
    }

    /// SCAR-splice is SCAR plus the splice trim: at equal nsplits and
    /// search its recorded config matches SCAR's, but its config hash
    /// does not, since the trim changes what a preemption answers.
    #[test]
    fn splice_trim_is_configuration() {
        use scar_hash::StableHasher;
        use std::hash::Hasher;
        let registry = PolicyRegistry::with_zoo();
        let cfg = ServeConfig::default();
        let config_hash = |name: &str| {
            let mut h = StableHasher::new();
            registry
                .build(name, &cfg)
                .unwrap()
                .fingerprint_config(&mut h);
            h.finish()
        };
        let scar = registry.build("SCAR", &cfg).unwrap();
        let splice = registry.build("SCAR-splice", &cfg).unwrap();
        assert_eq!(scar.config(), splice.config());
        assert_ne!(config_hash("SCAR"), config_hash("SCAR-splice"));
    }
}
