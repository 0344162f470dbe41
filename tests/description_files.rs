//! Integration tests for the Figure 4 description-file interface: JSON
//! round-trips of workloads and MCM hardware, and scheduling from parsed
//! descriptions.

use scar::core::baselines::Standalone;
use scar::core::{
    OptMetric, Scar, ScheduleArtifact, ScheduleRequest, Scheduler, SearchBudget, Session,
};
use scar::maestro::{ChipletConfig, Dataflow};
use scar::mcm::parse::McmParseError;
use scar::mcm::templates::{self, het_sides_3x3, het_t_3x3, Profile};
use scar::mcm::{parse as mcm_parse, InterconnectSpec, McmConfig, NopTopology};
use scar::workloads::parse::ParseError;
use scar::workloads::{parse as wl_parse, zoo, Scenario};
use serde::{Deserialize, Serialize, Value};

fn quick() -> SearchBudget {
    SearchBudget {
        max_root_perms: 8,
        max_paths_per_model: 4,
        max_placements_per_window: 60,
        max_candidates_per_window: 120,
        ..SearchBudget::default()
    }
}

/// The parse validates, so this also guards the workload checks against
/// rejecting a scenario the paper uses.
#[test]
fn all_table_iii_scenarios_roundtrip_through_json() {
    for n in 1..=10 {
        let sc = Scenario::by_id(n);
        let json = wl_parse::scenario_to_json(&sc).unwrap();
        let back = wl_parse::scenario_from_json(&json).unwrap();
        assert_eq!(back, sc, "scenario {n} JSON roundtrip");
    }
}

#[test]
fn mcm_roundtrip_preserves_scheduling_results() {
    let sc = Scenario::datacenter(1);
    let mcm = het_sides_3x3(Profile::Datacenter);
    let json = mcm_parse::mcm_to_json(&mcm).unwrap();
    let parsed = mcm_parse::mcm_from_json(&json).unwrap();

    let session = Session::new();
    let scar = Scar::with_defaults();
    let request = |mcm: &McmConfig| ScheduleRequest::new(sc.clone(), mcm.clone()).budget(quick());
    let a = scar.schedule(&session, &request(&mcm)).unwrap();
    let b = scar.schedule(&session, &request(&parsed)).unwrap();
    assert_eq!(a.schedule(), b.schedule());
    assert_eq!(a.total(), b.total());
}

#[test]
fn scheduling_from_files_on_disk() {
    let dir = std::env::temp_dir().join("scar_integration_files");
    std::fs::create_dir_all(&dir).unwrap();

    let sc_path = dir.join("scenario.json");
    let mcm_path = dir.join("mcm.json");
    wl_parse::save_scenario(&Scenario::arvr(10), &sc_path).unwrap();
    mcm_parse::save_mcm(&het_sides_3x3(Profile::ArVr), &mcm_path).unwrap();

    let sc = wl_parse::load_scenario(&sc_path).unwrap();
    let mcm = mcm_parse::load_mcm(&mcm_path).unwrap();
    let r = Scar::with_defaults()
        .schedule(
            &Session::new(),
            &ScheduleRequest::new(sc, mcm)
                .metric(OptMetric::Edp)
                .budget(quick()),
        )
        .unwrap();
    assert!(r.total().edp() > 0.0);
}

#[test]
fn hand_written_mcm_description_parses() {
    // a minimal hand-authored description: 2 chiplets on a 1x2 mesh
    let chiplets: Vec<ChipletConfig> = vec![
        ChipletConfig::arvr(Dataflow::NvdlaLike),
        ChipletConfig::arvr(Dataflow::ShidiannaoLike),
    ];
    let mcm = McmConfig::new("pair", chiplets, NopTopology::mesh(1, 2), vec![0, 1]);
    let json = mcm_parse::mcm_to_json(&mcm).unwrap();
    // sanity: the JSON mentions both dataflows and the Table II defaults
    assert!(json.contains("NvdlaLike"));
    assert!(json.contains("ShidiannaoLike"));
    let back = mcm_parse::mcm_from_json(&json).unwrap();
    assert_eq!(back.num_chiplets(), 2);
    assert_eq!(back.topology().hops(0, 1), 1);
}

#[test]
fn malformed_descriptions_produce_useful_errors() {
    let e = wl_parse::scenario_from_json("{\"broken\": true}").unwrap_err();
    assert!(e.to_string().contains("malformed"));
    let e = mcm_parse::mcm_from_json("not json at all").unwrap_err();
    assert!(e.to_string().contains("malformed"));
}

/// `desc`'s description with the field at `path` (`nop.bw_bytes_per_s`,
/// `chiplets[4].freq_hz`, `topology.adjacency[0][1]`) replaced by the JSON
/// text `literal`, so values the serializer cannot write (`1e999`) reach
/// the parser as written.
fn description_with(desc: &impl Serialize, path: &str, literal: &str) -> String {
    let mut v = desc.to_value();
    let mut slot = &mut v;
    for part in path.split('.') {
        let mut pieces = part.split('[');
        slot = &mut slot[pieces.next().unwrap()];
        for index in pieces {
            slot = &mut slot[index.trim_end_matches(']').parse::<usize>().unwrap()];
        }
    }
    *slot = Value::Str("__literal__".into());
    serde_json::to_string(&v)
        .unwrap()
        .replace("\"__literal__\"", literal)
}

fn invalid_field(json: &str) -> String {
    match mcm_parse::mcm_from_json(json) {
        Err(McmParseError::Invalid { field, .. }) => field,
        other => panic!("expected an invalid-field error, got {other:?}"),
    }
}

/// Het-Sides with an inter-MCM fabric attached, so every numeric field of a
/// description is present.
fn full_description() -> McmConfig {
    het_sides_3x3(Profile::ArVr).with_interconnect(Some(InterconnectSpec::nop()))
}

#[test]
fn every_template_round_trips_through_a_validated_parse() {
    let mut all = templates::all_3x3(Profile::Datacenter);
    all.extend(templates::all_3x3(Profile::ArVr));
    for df in Dataflow::ALL {
        all.push(templates::simba_t_3x3(Profile::ArVr, df));
        all.push(templates::simba_6x6(Profile::Datacenter, df));
        all.push(templates::homo_2x2(Profile::Datacenter, df));
        all.push(templates::homogeneous(Profile::ArVr, df, 2, 5));
    }
    all.push(het_t_3x3(Profile::ArVr));
    all.push(templates::het_cross_6x6(Profile::Datacenter));
    all.push(templates::het_2x2(Profile::Datacenter));
    for mcm in all {
        for spec in [
            None,
            Some(InterconnectSpec::nop()),
            Some(InterconnectSpec::wireless()),
        ] {
            let mcm = mcm.clone().with_interconnect(spec);
            let back = mcm_parse::mcm_from_json(&mcm_parse::mcm_to_json(&mcm).unwrap()).unwrap();
            assert_eq!(back, mcm, "{}", mcm.name());
        }
    }
}

/// Each link and chiplet number, set to 0, −1 and ±1e999 (the non-finite
/// values the JSON parser admits), is rejected naming the field, except
/// that latencies and energies may be 0.
#[test]
fn non_physical_numbers_are_rejected_naming_the_field() {
    let mcm = full_description();
    let positive = [
        "nop.bw_bytes_per_s",
        "offchip.bw_bytes_per_s",
        "interconnect.params.bw_bytes_per_s",
        "chiplets[4].freq_hz",
        "chiplets[4].noc_bytes_per_cycle",
    ];
    let non_negative = [
        "nop.hop_latency_s",
        "nop.energy_pj_per_byte_hop",
        "offchip.latency_s",
        "offchip.energy_pj_per_byte",
        "interconnect.params.latency_s",
        "interconnect.params.energy_pj_per_byte",
        "chiplets[4].energy.mac_pj",
        "chiplets[4].energy.l1_pj_per_byte",
        "chiplets[4].energy.l2_pj_per_byte",
    ];
    for field in positive.iter().chain(&non_negative) {
        for literal in ["-1", "-0.5", "1e999", "-1e999"] {
            let json = description_with(&mcm, field, literal);
            assert_eq!(invalid_field(&json), *field, "{field} = {literal}");
        }
        let zero = description_with(&mcm, field, "0");
        if positive.contains(field) {
            assert_eq!(invalid_field(&zero), *field, "{field} = 0");
        } else {
            mcm_parse::mcm_from_json(&zero).unwrap_or_else(|e| panic!("{field} = 0: {e}"));
        }
    }
    // a PE count is an unsigned integer: 0 is invalid, -1 is off the schema
    let json = description_with(&mcm, "chiplets[4].num_pes", "0");
    assert_eq!(invalid_field(&json), "chiplets[4].num_pes");
    let json = description_with(&mcm, "chiplets[4].num_pes", "-1");
    assert!(matches!(
        mcm_parse::mcm_from_json(&json),
        Err(McmParseError::Json(_))
    ));
}

/// A description whose parts contradict each other is rejected naming the
/// field, never laid out: the Het-Sides mesh relabelled as 3×4 or 3×2, an
/// asymmetric link, a triangular adjacency under a mesh kind, a chiplet
/// count off the topology's, and off-chip interfaces that are missing or
/// off the package.
#[test]
fn contradictory_descriptions_are_rejected_naming_the_field() {
    let sides = het_sides_3x3(Profile::ArVr);
    let eight = serde_json::to_string(&sides.chiplets()[..8].to_vec()).unwrap();
    let cases = [
        (&sides, "topology.kind.Mesh.cols", "4", "topology"),
        (&sides, "topology.kind.Mesh.cols", "2", "topology"),
        (&sides, "topology.kind.Mesh.rows", "1", "topology"),
        (&sides, "topology.adjacency[0][1]", "false", "topology"),
        (&sides, "topology.adjacency", "[]", "topology"),
        (&sides, "chiplets", &eight, "chiplets"),
        (&sides, "offchip_interfaces", "[]", "offchip_interfaces"),
        (&sides, "offchip_interfaces", "[0, 9]", "offchip_interfaces"),
    ];
    for (mcm, path, literal, field) in cases {
        let json = description_with(mcm, path, literal);
        assert_eq!(invalid_field(&json), field, "{path} = {literal}");
    }
    let het_t = het_t_3x3(Profile::ArVr);
    let mesh_kind = serde_json::to_string(&sides.to_value()["topology"]["kind"]).unwrap();
    let json = description_with(&het_t, "topology.kind", &mesh_kind);
    assert_eq!(invalid_field(&json), "topology");
}

/// Requests and artifacts embed MCMs, and reject them the same way.
#[test]
fn schedule_requests_reject_invalid_packages_naming_the_field() {
    let request = ScheduleRequest::new(Scenario::datacenter(1), full_description());
    let mut v = request.to_value();
    v["mcm"]["nop"]["bw_bytes_per_s"] = Value::UInt(0);
    let err = ScheduleRequest::from_value(&v).unwrap_err().to_string();
    assert!(err.contains("McmConfig.nop.bw_bytes_per_s"), "{err}");
    let mut v = request.to_value();
    v["mcm"]["offchip_interfaces"] = Value::Array(vec![]);
    let err = ScheduleRequest::from_value(&v).unwrap_err().to_string();
    assert!(err.contains("McmConfig.offchip_interfaces"), "{err}");
}

/// The field a workload description is rejected for, and the reason.
fn invalid_workload<T: std::fmt::Debug>(parsed: Result<T, ParseError>) -> (String, String) {
    match parsed {
        Err(ParseError::Invalid { field, reason }) => (field, reason),
        other => panic!("expected an invalid-field error, got {other:?}"),
    }
}

/// `scenario` with `path` (below model `i`) set to `literal` is rejected
/// naming the field, the model and the layer (none when the field is the
/// layer list itself); so is that model described on its own.
fn assert_rejected_naming_the_field(scenario: &Scenario, i: usize, path: &str, literal: &str) {
    let model = &scenario.models()[i].model;
    let layer = path
        .strip_prefix("layers[")
        .and_then(|p| p.split(']').next())
        .map(|j| &model.layers()[j.parse::<usize>().unwrap()].name);
    let in_scenario = format!("models[{i}].model.{path}");
    let json = description_with(scenario, &in_scenario, literal);
    let (field, reason) = invalid_workload(wl_parse::scenario_from_json(&json));
    assert_eq!(field, in_scenario, "{reason}");
    assert!(reason.contains(model.name()), "{reason}");
    match layer {
        Some(layer) => assert!(reason.contains(layer.as_str()), "{reason}"),
        None => assert!(!reason.contains(&model.layers()[0].name), "{reason}"),
    }

    let json = description_with(model, path, literal);
    let (field, reason) = invalid_workload(wl_parse::model_from_json(&json));
    assert_eq!(field, path, "{reason}");
}

/// Sc6 with a zero dimension on a model's first layer (D2GO's Conv2d,
/// Emformer's Gemm), or with its first model's layer list emptied, is
/// rejected naming the field, the model and the layer; so is that model
/// described on its own. Each used to parse, and then panic the search
/// (a zero stride or group count divides by zero), schedule a layer that
/// does no work, or silently drop the model.
#[test]
fn zero_divisors_and_empty_models_are_rejected_naming_the_field() {
    let sc6 = Scenario::arvr(6);
    for (i, path, literal) in [
        (0, "layers[0].kind.Conv2d.stride", "0"),
        (0, "layers[0].kind.Conv2d.groups", "0"),
        (0, "layers[0].kind.Conv2d.in_h", "0"),
        (0, "layers[0].kind.Conv2d.out_ch", "0"),
        (3, "layers[0].kind.Gemm.m", "0"),
        (3, "layers[0].kind.Gemm.k", "0"),
        (0, "layers", "[]"),
    ] {
        assert_rejected_naming_the_field(&sc6, i, path, literal);
    }
}

/// Nonzero fields that do not fit together are rejected the same way:
/// D2GO's first conv (`in_ch` 3) at `groups: 1000`, or with a kernel past
/// its padded input; GoogleNet's first pool (a 56×56 input, in Sc5) with a
/// 57-wide window; and Emformer's first Gemm at `m = k = n = 2^32`, whose
/// MAC count overflows `u64` (the field named is the layer's kind). The
/// groups and the Gemm used to parse and count 0 MACs; the kernels
/// clamped their layer's output to one row.
#[test]
fn inconsistent_and_overflowing_layers_are_rejected_naming_the_field() {
    let sc6 = Scenario::arvr(6);
    let two_pow_32 = r#"{"m": 4294967296, "k": 4294967296, "n": 4294967296}"#;
    for (i, path, literal) in [
        (0, "layers[0].kind.Conv2d.groups", "1000"),
        (0, "layers[0].kind.Conv2d.kernel_h", "1000"),
        (0, "layers[0].kind.Conv2d.kernel_w", "1000"),
        (3, "layers[0].kind.Gemm", two_pow_32),
    ] {
        assert_rejected_naming_the_field(&sc6, i, path, literal);
    }
    let sc5 = Scenario::datacenter(5);
    assert_eq!(sc5.models()[5].model.layers()[3].name, "pool2");
    assert_rejected_naming_the_field(&sc5, 5, "layers[3].kind.Pool2d.kernel", "57");
}

/// The checks reject nothing the zoo ships: every zoo model, described on
/// its own, round-trips through the validated parse. (The ten Table III
/// scenarios, which use every zoo model, are held the same way by
/// `all_table_iii_scenarios_roundtrip_through_json`.)
#[test]
fn every_zoo_model_round_trips_through_a_validated_parse() {
    for name in zoo::all_names() {
        let model = zoo::by_name(name).expect("listed names build");
        let json = wl_parse::model_to_json(&model).unwrap();
        let back = wl_parse::model_from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(back, model, "{name}");
    }
}

/// Artifacts embed scenarios in their requests, and reject them the same
/// way.
#[test]
fn artifacts_reject_invalid_scenarios_naming_the_field() {
    let request = ScheduleRequest::new(Scenario::arvr(6), het_sides_3x3(Profile::ArVr));
    let standalone = Standalone::new();
    let result = standalone.schedule(&Session::new(), &request).unwrap();
    let artifact = ScheduleArtifact::of("Sc6", &standalone, request, result);
    ScheduleArtifact::from_json(&artifact.to_json()).expect("the recording loads");

    let field = "models[0].model.layers[0].kind.Conv2d.stride";
    let json = description_with(&artifact, &format!("request.scenario.{field}"), "0");
    let err = ScheduleArtifact::from_json(&json).unwrap_err();
    assert!(err.contains(field), "{err}");
}
