//! Multi-model workload scenarios: the ten curated Table III scenarios,
//! plus a seeded [`generate`]or sampling unboundedly many synthetic
//! scenarios from the [`zoo`], and the nominal service rates/deadlines
//! (XRBench-style frame rates for AR/VR, query-rate conventions for
//! datacenter) that serving-oriented consumers attach to each model.

use crate::{zoo, DataType, Layer, LayerId, Model};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The deployment domain a scenario is curated for (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UseCase {
    /// MLPerf-inspired datacenter multi-tenancy (scenarios 1–5).
    Datacenter,
    /// XRBench-inspired AR/VR (scenarios 6–10).
    ArVr,
}

impl std::fmt::Display for UseCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UseCase::Datacenter => write!(f, "datacenter"),
            UseCase::ArVr => write!(f, "AR/VR"),
        }
    }
}

/// One model instance inside a scenario, with its batch size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioModel {
    /// The model architecture.
    pub model: Model,
    /// Inference batch size (Table III).
    pub batch: u64,
}

/// A multi-model workload scenario: Definition 1's `Sc`, the set of all
/// layers of all constituent models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    name: String,
    use_case: UseCase,
    models: Vec<ScenarioModel>,
}

impl Scenario {
    /// Creates a scenario from parts.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or any batch size is zero.
    pub fn new(name: impl Into<String>, use_case: UseCase, models: Vec<ScenarioModel>) -> Self {
        assert!(!models.is_empty(), "a scenario needs at least one model");
        assert!(
            models.iter().all(|m| m.batch > 0),
            "batch sizes must be positive"
        );
        Self {
            name: name.into(),
            use_case,
            models,
        }
    }

    /// Scenario name (e.g. `"Sc4: LMs + Segmentation + Image"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Deployment domain.
    pub fn use_case(&self) -> UseCase {
        self.use_case
    }

    /// The constituent models with their batch sizes.
    pub fn models(&self) -> &[ScenarioModel] {
        &self.models
    }

    /// Total layer count `L = Σ |m_i|`.
    pub fn num_layers(&self) -> usize {
        self.models.iter().map(|m| m.model.num_layers()).sum()
    }

    /// Looks up a layer by its [`LayerId`].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this scenario.
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.models[id.model].model.layers()[id.layer]
    }

    /// Batch size of the model owning `id`.
    pub fn batch_of(&self, id: LayerId) -> u64 {
        self.models[id.model].batch
    }

    /// All layer ids in (model, layer) order.
    pub fn layer_ids(&self) -> Vec<LayerId> {
        let mut out = Vec::with_capacity(self.num_layers());
        for (mi, m) in self.models.iter().enumerate() {
            for li in 0..m.model.num_layers() {
                out.push(LayerId::new(mi, li));
            }
        }
        out
    }

    /// Builds datacenter scenario `n` (1–5) from Table III.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=5`.
    pub fn datacenter(n: usize) -> Self {
        let m = |model: Model, batch: u64| ScenarioModel { model, batch };
        match n {
            1 => Self::new(
                "Sc1: LMs",
                UseCase::Datacenter,
                vec![m(zoo::gpt_l(), 1), m(zoo::bert_large(), 3)],
            ),
            2 => Self::new(
                "Sc2: LMs + Image",
                UseCase::Datacenter,
                vec![
                    m(zoo::gpt_l(), 1),
                    m(zoo::bert_large(), 3),
                    m(zoo::resnet50(), 1),
                ],
            ),
            3 => Self::new(
                "Sc3: LMs + Image",
                UseCase::Datacenter,
                vec![
                    m(zoo::gpt_l(), 1),
                    m(zoo::bert_large(), 3),
                    m(zoo::resnet50(), 32),
                ],
            ),
            4 => Self::new(
                "Sc4: LMs + Segmentation + Image",
                UseCase::Datacenter,
                vec![
                    m(zoo::gpt_l(), 8),
                    m(zoo::bert_large(), 24),
                    m(zoo::unet(), 1),
                    m(zoo::resnet50(), 32),
                ],
            ),
            5 => Self::new(
                "Sc5: LMs + Segmentation + Image",
                UseCase::Datacenter,
                vec![
                    m(zoo::gpt_l(), 8),
                    m(zoo::bert_large(), 24),
                    m(zoo::bert_base(), 24),
                    m(zoo::unet(), 1),
                    m(zoo::resnet50(), 32),
                    m(zoo::googlenet(), 32),
                ],
            ),
            _ => panic!("datacenter scenarios are numbered 1..=5, got {n}"),
        }
    }

    /// Builds AR/VR scenario `n` (6–10) from Table III.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `6..=10`.
    pub fn arvr(n: usize) -> Self {
        let m = |model: Model, batch: u64| ScenarioModel { model, batch };
        match n {
            6 => Self::new(
                "Sc6: AR Assistant",
                UseCase::ArVr,
                vec![
                    m(zoo::d2go(), 10),
                    m(zoo::plane_rcnn(), 15),
                    m(zoo::midas(), 30),
                    m(zoo::emformer(), 3),
                    m(zoo::hrvit(), 10),
                ],
            ),
            7 => Self::new(
                "Sc7: AR Gaming",
                UseCase::ArVr,
                vec![
                    m(zoo::plane_rcnn(), 15),
                    m(zoo::hand_sp(), 45),
                    m(zoo::midas(), 30),
                ],
            ),
            8 => Self::new(
                "Sc8: Outdoors",
                UseCase::ArVr,
                vec![m(zoo::d2go(), 30), m(zoo::emformer(), 3)],
            ),
            9 => Self::new(
                "Sc9: Social",
                UseCase::ArVr,
                vec![
                    m(zoo::eyecod(), 60),
                    m(zoo::hand_sp(), 30),
                    m(zoo::sp2dense(), 30),
                ],
            ),
            10 => Self::new(
                "Sc10: VR Gaming",
                UseCase::ArVr,
                vec![m(zoo::eyecod(), 60), m(zoo::hand_sp(), 45)],
            ),
            _ => panic!("AR/VR scenarios are numbered 6..=10, got {n}"),
        }
    }

    /// Builds any Table III scenario by its number (1–10).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=10`.
    pub fn by_id(n: usize) -> Self {
        match n {
            1..=5 => Self::datacenter(n),
            6..=10 => Self::arvr(n),
            _ => panic!("scenarios are numbered 1..=10, got {n}"),
        }
    }

    /// All five datacenter scenarios.
    pub fn all_datacenter() -> Vec<Self> {
        (1..=5).map(Self::datacenter).collect()
    }

    /// All five AR/VR scenarios.
    pub fn all_arvr() -> Vec<Self> {
        (6..=10).map(Self::arvr).collect()
    }
}

/// The nominal request rate of a zoo model under a use case, in requests
/// (AR/VR: frames) per second.
///
/// For the AR/VR suite these are the XRBench-style frame rates — the same
/// numbers Table III uses as per-scenario batch sizes (e.g. EyeCod tracks
/// gaze at 60 FPS, Emformer transcribes at 3 segments/s). Datacenter
/// tenants have no intrinsic frame clock; the convention here is an
/// MLPerf-server-style load inversely proportional to model weight (heavy
/// LMs are queried less often than light CNNs).
///
/// Unknown names fall back to 1 request/s.
pub fn nominal_rate_hz(model_name: &str, use_case: UseCase) -> f64 {
    let n = model_name.to_ascii_lowercase();
    match use_case {
        UseCase::ArVr => match n.as_str() {
            "eyecod" => 60.0,
            "hand-s/p" | "hand_sp" | "handsp" => 45.0,
            "midas" | "sp2dense" => 30.0,
            "d2go" => 30.0,
            "planercnn" | "plane-rcnn" => 15.0,
            "hrvit" => 10.0,
            "emformer" => 3.0,
            _ => 1.0,
        },
        UseCase::Datacenter => match n.as_str() {
            "gpt-l" | "gpt_l" | "gptl" => 2.0,
            "bert-l" | "bert-large" | "bert_large" => 8.0,
            "bert-base" | "bert_base" => 16.0,
            "u-net" | "unet" => 4.0,
            "resnet-50" | "resnet50" => 32.0,
            "googlenet" => 32.0,
            _ => 1.0,
        },
    }
}

/// The nominal per-request deadline of a zoo model under a use case, in
/// seconds — `None` when the domain convention is throughput-oriented
/// (datacenter batch tenants) rather than deadline-oriented.
///
/// AR/VR requests are real-time: a frame is useful only if it completes
/// within its frame period, so the deadline is `1 / rate`.
pub fn nominal_deadline_s(model_name: &str, use_case: UseCase) -> Option<f64> {
    match use_case {
        UseCase::ArVr => Some(1.0 / nominal_rate_hz(model_name, use_case)),
        UseCase::Datacenter => None,
    }
}

/// The zoo models a use case draws from (Table III's two halves).
pub fn model_pool(use_case: UseCase) -> Vec<Model> {
    match use_case {
        UseCase::Datacenter => vec![
            zoo::gpt_l(),
            zoo::bert_large(),
            zoo::bert_base(),
            zoo::resnet50(),
            zoo::unet(),
            zoo::googlenet(),
        ],
        UseCase::ArVr => vec![
            zoo::d2go(),
            zoo::plane_rcnn(),
            zoo::midas(),
            zoo::emformer(),
            zoo::hrvit(),
            zoo::hand_sp(),
            zoo::eyecod(),
            zoo::sp2dense(),
        ],
    }
}

/// Generates a synthetic multi-model scenario: `n_models` tenants sampled
/// from the use case's [`model_pool`] with paper-plausible batch sizes.
///
/// Deterministic given `(seed, use_case, n_models)` — the same `StdRng`
/// seeding idiom as the evolutionary search driver — so generated
/// scenarios are reproducible identifiers, not one-off random objects.
/// The first `min(n_models, pool)` tenants are drawn without replacement
/// (a scenario of *distinct* models, like Table III); beyond that, models
/// repeat with independently drawn batches (multi-tenant duplicates).
///
/// Every generated scenario upholds the [`Scenario`] invariants: at least
/// one model, all batches positive.
///
/// # Panics
///
/// Panics if `n_models` is zero.
///
/// ```
/// use scar_workloads::scenario::generate;
/// use scar_workloads::UseCase;
///
/// let sc = generate(7, UseCase::Datacenter, 3);
/// assert_eq!(sc.models().len(), 3);
/// assert_eq!(sc, generate(7, UseCase::Datacenter, 3)); // reproducible
/// ```
pub fn generate(seed: u64, use_case: UseCase, n_models: usize) -> Scenario {
    assert!(n_models > 0, "a scenario needs at least one model");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA2_5EED);
    let pool = model_pool(use_case);

    // distinct models first (shuffled pool prefix), then repeats
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut rng);
    let mut picks: Vec<usize> = order.iter().copied().take(n_models).collect();
    while picks.len() < n_models {
        picks.push(rng.gen_range(0..pool.len()));
    }

    let models = picks
        .into_iter()
        .map(|i| {
            let model = pool[i].clone();
            let batch = sample_batch(&mut rng, &model, use_case);
            ScenarioModel { model, batch }
        })
        .collect();
    Scenario::new(
        format!("Gen-{seed:#x}: {n_models} tenants"),
        use_case,
        models,
    )
}

/// Draws a Table III-plausible batch size for `model` under `use_case`.
fn sample_batch(rng: &mut StdRng, model: &Model, use_case: UseCase) -> u64 {
    match use_case {
        // AR/VR batches are frame buckets: the per-second frame count, or a
        // divisor of it for lower-latency pipelines
        UseCase::ArVr => {
            let rate = nominal_rate_hz(model.name(), use_case).round() as u64;
            let choices = [rate, rate, (rate / 2).max(1), (rate / 3).max(1)];
            *choices.choose(rng).expect("non-empty")
        }
        // datacenter batches follow Table III: LMs small-to-moderate,
        // vision models either interactive (1) or thoughput-batched (24/32)
        UseCase::Datacenter => {
            let stats = model.stats(DataType::Int8);
            let heavy = stats.macs > 10_000_000_000; // ≳10 GMAC/sample: LM-class
            let choices: &[u64] = if heavy {
                &[1, 2, 3, 8]
            } else {
                &[1, 8, 24, 32]
            };
            *choices.choose(rng).expect("non-empty")
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]:", self.name, self.use_case)?;
        for m in &self.models {
            write!(f, " {}(b{})", m.model.name(), m.batch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_scenarios_build() {
        for n in 1..=10 {
            let sc = Scenario::by_id(n);
            assert!(!sc.models().is_empty());
            assert!(sc.num_layers() > 20, "{} too small", sc.name());
        }
    }

    #[test]
    fn scenario_counts_match_table_iii() {
        assert_eq!(Scenario::datacenter(1).models().len(), 2);
        assert_eq!(Scenario::datacenter(2).models().len(), 3);
        assert_eq!(Scenario::datacenter(3).models().len(), 3);
        assert_eq!(Scenario::datacenter(4).models().len(), 4);
        assert_eq!(Scenario::datacenter(5).models().len(), 6);
        assert_eq!(Scenario::arvr(6).models().len(), 5);
        assert_eq!(Scenario::arvr(7).models().len(), 3);
        assert_eq!(Scenario::arvr(8).models().len(), 2);
        assert_eq!(Scenario::arvr(9).models().len(), 3);
        assert_eq!(Scenario::arvr(10).models().len(), 2);
    }

    #[test]
    fn sc4_layer_totals_match_table_vi() {
        // Table VI: GPT-L 120 + BERT-L 60 + U-Net 23 + ResNet 66 = 269 layers
        let sc = Scenario::datacenter(4);
        assert_eq!(sc.num_layers(), 269);
    }

    #[test]
    fn sc3_resnet_batch_is_32() {
        let sc = Scenario::datacenter(3);
        let rn = sc
            .models()
            .iter()
            .find(|m| m.model.name() == "ResNet-50")
            .unwrap();
        assert_eq!(rn.batch, 32);
    }

    #[test]
    fn layer_ids_cover_all_layers_in_order() {
        let sc = Scenario::datacenter(1);
        let ids = sc.layer_ids();
        assert_eq!(ids.len(), sc.num_layers());
        assert_eq!(ids[0], LayerId::new(0, 0));
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "numbered")]
    fn out_of_range_scenario_panics() {
        let _ = Scenario::by_id(11);
    }

    #[test]
    fn batch_of_matches_model() {
        let sc = Scenario::datacenter(3);
        let last_model = sc.models().len() - 1;
        assert_eq!(sc.batch_of(LayerId::new(last_model, 0)), 32);
    }

    #[test]
    fn generated_scenarios_are_valid_for_many_seeds() {
        // acceptance sweep: ≥100 distinct seeds, all invariants hold
        for seed in 0..120u64 {
            for (use_case, n) in [
                (UseCase::Datacenter, 1 + (seed as usize % 6)),
                (UseCase::ArVr, 1 + (seed as usize % 8)),
            ] {
                let sc = generate(seed, use_case, n);
                assert_eq!(sc.models().len(), n, "seed {seed}");
                assert_eq!(sc.use_case(), use_case);
                assert!(sc.models().iter().all(|m| m.batch > 0), "seed {seed}");
                assert!(sc.num_layers() > 0, "seed {seed}");
                assert_eq!(sc.layer_ids().len(), sc.num_layers());
                // every constituent model resolves back to the zoo
                for m in sc.models() {
                    assert!(zoo::by_name(m.model.name()).is_some(), "{}", m.model.name());
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = generate(11, UseCase::ArVr, 4);
        let b = generate(11, UseCase::ArVr, 4);
        assert_eq!(a, b);
        let c = generate(12, UseCase::ArVr, 4);
        assert_ne!(a, c, "different seeds should (a.s.) differ");
    }

    #[test]
    fn generated_prefix_has_distinct_models() {
        // up to the pool size, tenants are distinct models
        let sc = generate(3, UseCase::Datacenter, 6);
        let mut names: Vec<&str> = sc.models().iter().map(|m| m.model.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        // beyond the pool size, repeats appear but the scenario stays valid
        let big = generate(3, UseCase::Datacenter, 9);
        assert_eq!(big.models().len(), 9);
    }

    #[test]
    fn nominal_rates_match_xrbench_conventions() {
        assert_eq!(nominal_rate_hz("EyeCod", UseCase::ArVr), 60.0);
        assert_eq!(nominal_rate_hz("Hand-S/P", UseCase::ArVr), 45.0);
        assert_eq!(nominal_rate_hz("Emformer", UseCase::ArVr), 3.0);
        assert_eq!(
            nominal_deadline_s("EyeCod", UseCase::ArVr),
            Some(1.0 / 60.0)
        );
        assert_eq!(nominal_deadline_s("GPT-L", UseCase::Datacenter), None);
        assert!(nominal_rate_hz("GPT-L", UseCase::Datacenter) > 0.0);
        assert_eq!(nominal_rate_hz("unknown-model", UseCase::ArVr), 1.0);
    }

    #[test]
    fn generated_scenarios_roundtrip_through_json() {
        let sc = generate(42, UseCase::ArVr, 3);
        let json = crate::parse::scenario_to_json(&sc).unwrap();
        assert_eq!(crate::parse::scenario_from_json(&json).unwrap(), sc);
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn zero_tenant_generation_panics() {
        let _ = generate(1, UseCase::Datacenter, 0);
    }
}
