//! JSON description files for MCM hardware (the "MCM config file" of
//! Figure 4).
//!
//! The paper's framework receives *a description file of the MCM hardware
//! specification (the number of chiplets, the shape, and chiplet arrays
//! dataflow organization, NoP bandwidth, on-chiplet memory size, etc.)*.
//! [`McmConfig`] serializes to/from JSON to provide that interface.

use crate::config::Rejection;
use crate::McmConfig;
use std::fmt;
use std::fs;
use std::path::Path;

/// Errors reading or writing MCM description files.
#[derive(Debug)]
pub enum McmParseError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The JSON was malformed or did not match the schema.
    Json(serde_json::Error),
    /// The description fits the schema but names a package that cannot
    /// exist: a topology that contradicts itself, a chiplet count off the
    /// topology's, or a non-physical link or chiplet number.
    Invalid {
        /// Dotted path of the offending field (`nop.bw_bytes_per_s`,
        /// `chiplets[2].freq_hz`, `topology`).
        field: String,
        /// The rule the field breaks.
        reason: String,
    },
}

impl fmt::Display for McmParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McmParseError::Io(e) => write!(f, "i/o error on MCM description file: {e}"),
            McmParseError::Json(e) => write!(f, "malformed MCM description: {e}"),
            McmParseError::Invalid { field, reason } => {
                write!(f, "invalid MCM description: {field}: {reason}")
            }
        }
    }
}

impl std::error::Error for McmParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McmParseError::Io(e) => Some(e),
            McmParseError::Json(e) => Some(e),
            McmParseError::Invalid { .. } => None,
        }
    }
}

impl From<std::io::Error> for McmParseError {
    fn from(e: std::io::Error) -> Self {
        McmParseError::Io(e)
    }
}

impl From<serde_json::Error> for McmParseError {
    fn from(e: serde_json::Error) -> Self {
        McmParseError::Json(e)
    }
}

/// Serializes an MCM description to pretty-printed JSON.
///
/// # Errors
///
/// Returns [`McmParseError::Json`] if serialization fails.
pub fn mcm_to_json(mcm: &McmConfig) -> Result<String, McmParseError> {
    Ok(serde_json::to_string_pretty(mcm)?)
}

/// Parses and validates an MCM description from JSON.
///
/// # Errors
///
/// Returns [`McmParseError::Json`] on malformed JSON or a schema mismatch,
/// and [`McmParseError::Invalid`], naming the field, on a description that
/// cannot describe a package (see [`McmParseError::Invalid`]).
pub fn mcm_from_json(json: &str) -> Result<McmConfig, McmParseError> {
    let value: serde_json::Value = serde_json::from_str(json)?;
    McmConfig::decode(&value).map_err(|r| match r {
        Rejection::Schema(e) => McmParseError::Json(e.into()),
        Rejection::Invalid { field, reason } => McmParseError::Invalid { field, reason },
    })
}

/// Loads an MCM description file.
///
/// # Errors
///
/// See [`mcm_from_json`]; additionally [`McmParseError::Io`] on read
/// failures.
pub fn load_mcm(path: impl AsRef<Path>) -> Result<McmConfig, McmParseError> {
    mcm_from_json(&fs::read_to_string(path)?)
}

/// Writes an MCM description file.
///
/// # Errors
///
/// Returns [`McmParseError::Io`] if the file cannot be written.
pub fn save_mcm(mcm: &McmConfig, path: impl AsRef<Path>) -> Result<(), McmParseError> {
    Ok(fs::write(path, mcm_to_json(mcm)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{het_cross_6x6, het_sides_3x3, Profile};
    use crate::Loc;

    #[test]
    fn roundtrip_preserves_structure() {
        let m = het_sides_3x3(Profile::Datacenter);
        let j = mcm_to_json(&m).unwrap();
        let back = mcm_from_json(&j).unwrap();
        assert_eq!(back.name(), m.name());
        assert_eq!(back.num_chiplets(), m.num_chiplets());
        assert_eq!(back.dataflow_counts(), m.dataflow_counts());
    }

    #[test]
    fn caches_work_after_roundtrip() {
        let m = het_cross_6x6(Profile::Datacenter);
        let back = mcm_from_json(&mcm_to_json(&m).unwrap()).unwrap();
        // hop queries exercise the rebuilt cache
        assert_eq!(back.topology().hops(0, 35), m.topology().hops(0, 35));
        let a = m.transfer(Loc::Chiplet(0), Loc::Chiplet(35), 4096);
        let b = back.transfer(Loc::Chiplet(0), Loc::Chiplet(35), 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(
            mcm_from_json("{oops").unwrap_err(),
            McmParseError::Json(_)
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("scar_mcm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("het_sides.json");
        let m = het_sides_3x3(Profile::ArVr);
        save_mcm(&m, &path).unwrap();
        let back = load_mcm(&path).unwrap();
        assert_eq!(back.name(), "Het-Sides");
    }
}
