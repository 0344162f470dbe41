//! JSON description files for workloads (the "input configs" of Figure 4).
//!
//! The paper's framework receives *description files of the multi-model
//! workloads (layer parameters, topology, dependencies, etc.)*. This module
//! provides that interface: [`Model`]s and [`Scenario`]s serialize to and
//! from JSON, so scenarios can be authored outside the built-in
//! [`crate::zoo`].
//!
//! ```
//! use scar_workloads::{parse, ModelBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = ModelBuilder::new("toy").gemm("fc", 16, 8, 1).build();
//! let json = parse::model_to_json(&model)?;
//! let back = parse::model_from_json(&json)?;
//! assert_eq!(model, back);
//! # Ok(())
//! # }
//! ```

use crate::{LayerKind, Model, Scenario};
use std::fmt;
use std::fs;
use std::path::Path;

/// Errors produced when reading or writing workload description files.
#[derive(Debug)]
pub enum ParseError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The JSON was malformed or did not match the schema.
    Json(serde_json::Error),
    /// The description fits the schema but names a workload that cannot
    /// be scheduled: a scenario with no models, a zero batch, a model
    /// with no layers, a zero layer dimension, a group count that does not
    /// divide the channels, a kernel larger than its padded input, or a
    /// layer whose counts overflow `u64`.
    Invalid {
        /// Dotted path of the offending field
        /// (`models[0].model.layers[3].kind.Conv2d.stride`).
        field: String,
        /// The rule the field breaks, naming the model and the layer.
        reason: String,
    },
}

fn invalid(field: impl fmt::Display, reason: impl fmt::Display) -> ParseError {
    ParseError::Invalid {
        field: field.to_string(),
        reason: reason.to_string(),
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error reading description file: {e}"),
            ParseError::Json(e) => write!(f, "malformed workload description: {e}"),
            ParseError::Invalid { field, reason } => {
                write!(f, "invalid workload description: {field}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Json(e) => Some(e),
            ParseError::Invalid { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl From<serde_json::Error> for ParseError {
    fn from(e: serde_json::Error) -> Self {
        ParseError::Json(e)
    }
}

impl Model {
    /// The checks a deserialized model passes: at least one layer (which
    /// [`Model::new`] asserts), and for every layer
    ///
    /// * no zero in any dimension but `Conv2d.padding` (a zero stride or
    ///   group count divides by zero in the shape arithmetic; a zero
    ///   extent makes a layer that does no work yet schedules);
    /// * a `Conv2d.groups` that divides both `in_ch` and `out_ch`, and a
    ///   kernel no larger than its padded input (`Conv2d` and `Pool2d`):
    ///   either would count a layer's MACs or outputs wrong;
    /// * MAC, input, weight and output element counts that fit in `u64`
    ///   (they would wrap in a release build).
    ///
    /// # Errors
    ///
    /// [`ParseError::Invalid`], naming the field
    /// (`layers[0].kind.Conv2d.stride`), the model and the layer.
    pub fn validate(&self) -> Result<(), ParseError> {
        self.validate_at("")
    }

    /// [`Model::validate`] with every field path prefixed by `at`.
    fn validate_at(&self, at: &str) -> Result<(), ParseError> {
        let model = self.name();
        if self.layers().is_empty() {
            return Err(invalid(
                format_args!("{at}layers"),
                format_args!("model {model:?} has no layers"),
            ));
        }
        for (j, layer) in self.layers().iter().enumerate() {
            if let Some((field, rule)) = broken_rule(&layer.kind) {
                return Err(invalid(
                    format_args!("{at}layers[{j}].kind.{field}"),
                    format_args!("{rule} (model {model:?}, layer {:?})", layer.name),
                ));
            }
        }
        Ok(())
    }
}

/// The first rule a layer breaks, as its field path below `kind`
/// (`Conv2d.groups`, or the bare variant name when a count overflows) and
/// the rule.
fn broken_rule(kind: &LayerKind) -> Option<(String, String)> {
    let (name, dims) = positive_dims(kind);
    if let Some((field, _)) = dims.iter().find(|(_, v)| *v == 0) {
        return Some((format!("{name}.{field}"), "must be >= 1".to_string()));
    }
    if let Some((field, rule)) = shape_rule(kind) {
        return Some((format!("{name}.{field}"), rule));
    }
    overflow(kind).map(|rule| (name.to_string(), rule))
}

/// The first shape rule a layer with no zero dimension breaks, as the
/// field and the rule: a `Conv2d.groups` that does not divide both channel
/// counts, or a `Conv2d`/`Pool2d` kernel larger than its padded input.
fn shape_rule(kind: &LayerKind) -> Option<(&'static str, String)> {
    let too_large = |kernel: u64, input: u64, padding: u64| {
        // a padded input past u64 fits any kernel
        let padded = 2u64.checked_mul(padding)?.checked_add(input)?;
        (kernel > padded).then(|| format!("{kernel} exceeds the padded input ({padded})"))
    };
    match *kind {
        LayerKind::Conv2d {
            in_h,
            in_w,
            in_ch,
            out_ch,
            kernel_h,
            kernel_w,
            padding,
            groups,
            ..
        } => {
            if in_ch % groups != 0 || out_ch % groups != 0 {
                return Some((
                    "groups",
                    format!("{groups} must divide in_ch ({in_ch}) and out_ch ({out_ch})"),
                ));
            }
            too_large(kernel_h, in_h, padding)
                .map(|rule| ("kernel_h", rule))
                .or_else(|| too_large(kernel_w, in_w, padding).map(|rule| ("kernel_w", rule)))
        }
        LayerKind::Pool2d {
            in_h, in_w, kernel, ..
        } => too_large(kernel, in_h, 0)
            .or_else(|| too_large(kernel, in_w, 0))
            .map(|rule| ("kernel", rule)),
        _ => None,
    }
}

/// Which of a layer's per-sample counts overflows `u64`, if one does.
fn overflow(kind: &LayerKind) -> Option<String> {
    [
        ("MAC", kind.checked_macs()),
        ("input element", kind.checked_input_elems()),
        ("weight element", kind.checked_weight_elems()),
        ("output element", kind.checked_output_elems()),
    ]
    .into_iter()
    .find(|(_, count)| count.is_none())
    .map(|(what, _)| format!("its {what} count overflows u64"))
}

/// A layer kind's variant name and the fields that must be at least 1
/// (all but `Conv2d.padding`), in declaration order.
fn positive_dims(kind: &LayerKind) -> (&'static str, Vec<(&'static str, u64)>) {
    match *kind {
        LayerKind::Conv2d {
            in_h,
            in_w,
            in_ch,
            out_ch,
            kernel_h,
            kernel_w,
            stride,
            padding: _,
            groups,
        } => (
            "Conv2d",
            vec![
                ("in_h", in_h),
                ("in_w", in_w),
                ("in_ch", in_ch),
                ("out_ch", out_ch),
                ("kernel_h", kernel_h),
                ("kernel_w", kernel_w),
                ("stride", stride),
                ("groups", groups),
            ],
        ),
        LayerKind::Gemm { m, k, n } => ("Gemm", vec![("m", m), ("k", k), ("n", n)]),
        LayerKind::MatMul { m, k, n, heads } => (
            "MatMul",
            vec![("m", m), ("k", k), ("n", n), ("heads", heads)],
        ),
        LayerKind::Pool2d {
            in_h,
            in_w,
            channels,
            kernel,
            stride,
        } => (
            "Pool2d",
            vec![
                ("in_h", in_h),
                ("in_w", in_w),
                ("channels", channels),
                ("kernel", kernel),
                ("stride", stride),
            ],
        ),
        LayerKind::Eltwise { elements } => ("Eltwise", vec![("elements", elements)]),
        LayerKind::Norm { elements } => ("Norm", vec![("elements", elements)]),
        LayerKind::Softmax { rows, cols } => ("Softmax", vec![("rows", rows), ("cols", cols)]),
        LayerKind::Activation { elements } => ("Activation", vec![("elements", elements)]),
    }
}

impl Scenario {
    /// The checks a deserialized scenario passes, which
    /// [`Scenario::new`] asserts: at least one model, no zero batch, and
    /// every model valid ([`Model::validate`]).
    ///
    /// # Errors
    ///
    /// [`ParseError::Invalid`], naming the field (`models[1].batch`), the
    /// model and, for a layer's fields, the layer.
    pub fn validate(&self) -> Result<(), ParseError> {
        if self.models().is_empty() {
            return Err(invalid("models", "a scenario needs at least one model"));
        }
        for (i, m) in self.models().iter().enumerate() {
            if m.batch == 0 {
                return Err(invalid(
                    format_args!("models[{i}].batch"),
                    format_args!("must be >= 1 (model {:?})", m.model.name()),
                ));
            }
            m.model.validate_at(&format!("models[{i}].model."))?;
        }
        Ok(())
    }
}

/// Serializes a model to pretty-printed JSON.
///
/// # Errors
///
/// Returns [`ParseError::Json`] if serialization fails (cannot happen for
/// well-formed models; kept fallible for API symmetry).
pub fn model_to_json(model: &Model) -> Result<String, ParseError> {
    Ok(serde_json::to_string_pretty(model)?)
}

/// Parses and validates a model from JSON.
///
/// # Errors
///
/// Returns [`ParseError::Json`] on malformed JSON and
/// [`ParseError::Invalid`] on a model that cannot be scheduled (see
/// [`Model::validate`]).
pub fn model_from_json(json: &str) -> Result<Model, ParseError> {
    let model: Model = serde_json::from_str(json)?;
    model.validate()?;
    Ok(model)
}

/// Serializes a scenario to pretty-printed JSON.
///
/// # Errors
///
/// Returns [`ParseError::Json`] if serialization fails.
pub fn scenario_to_json(scenario: &Scenario) -> Result<String, ParseError> {
    Ok(serde_json::to_string_pretty(scenario)?)
}

/// Parses and validates a scenario from JSON.
///
/// # Errors
///
/// Returns [`ParseError::Json`] on malformed JSON and
/// [`ParseError::Invalid`] on a scenario that cannot be scheduled (see
/// [`Scenario::validate`]).
pub fn scenario_from_json(json: &str) -> Result<Scenario, ParseError> {
    let sc: Scenario = serde_json::from_str(json)?;
    sc.validate()?;
    Ok(sc)
}

/// Loads a scenario description file.
///
/// # Errors
///
/// See [`scenario_from_json`]; additionally returns [`ParseError::Io`] if
/// the file cannot be read.
pub fn load_scenario(path: impl AsRef<Path>) -> Result<Scenario, ParseError> {
    scenario_from_json(&fs::read_to_string(path)?)
}

/// Writes a scenario description file.
///
/// # Errors
///
/// Returns [`ParseError::Io`] if the file cannot be written.
pub fn save_scenario(scenario: &Scenario, path: impl AsRef<Path>) -> Result<(), ParseError> {
    Ok(fs::write(path, scenario_to_json(scenario)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, ModelBuilder, Scenario};

    #[test]
    fn model_roundtrip() {
        let m = zoo::eyecod();
        let j = model_to_json(&m).unwrap();
        assert_eq!(model_from_json(&j).unwrap(), m);
    }

    #[test]
    fn scenario_roundtrip() {
        let sc = Scenario::datacenter(2);
        let j = scenario_to_json(&sc).unwrap();
        assert_eq!(scenario_from_json(&j).unwrap(), sc);
    }

    #[test]
    fn malformed_json_is_reported() {
        let err = model_from_json("{not json").unwrap_err();
        assert!(matches!(err, ParseError::Json(_)));
        assert!(err.to_string().contains("malformed"));
    }

    #[test]
    fn zero_batch_rejected() {
        let sc = Scenario::datacenter(1);
        let mut v: serde_json::Value =
            serde_json::from_str(&scenario_to_json(&sc).unwrap()).unwrap();
        v["models"][0]["batch"] = serde_json::json!(0);
        let err = scenario_from_json(&v.to_string()).unwrap_err();
        assert!(
            matches!(&err, ParseError::Invalid { field, .. } if field == "models[0].batch"),
            "{err}"
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("scar_workloads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sc1.json");
        let sc = Scenario::datacenter(1);
        save_scenario(&sc, &path).unwrap();
        assert_eq!(load_scenario(&path).unwrap(), sc);
    }

    #[test]
    fn custom_model_roundtrip_via_builder() {
        let m = ModelBuilder::new("custom")
            .conv("c1", 32, 3, 8, 3, 1)
            .gemm("fc", 10, 8 * 32 * 32, 1)
            .build();
        let j = model_to_json(&m).unwrap();
        assert_eq!(model_from_json(&j).unwrap().num_layers(), 2);
    }
}
