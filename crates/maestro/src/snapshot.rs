//! Persistent cost-database snapshots: cold starts skip MAESTRO entirely.
//!
//! The paper's premise (§IV) is that per-(layer, chiplet) costs are
//! computed *offline* and reused by every scheduling round. In-memory, the
//! [`CostDatabase`] already delivers that within one process; this module
//! extends the reuse across processes, the way serving systems keep a
//! warm-start profile store (Clipper's model profiles, Clockwork's
//! deterministic execution estimates): a database serializes to a
//! versioned JSON snapshot, and a restarted server restores it instead of
//! re-running the cost model.
//!
//! The format is deliberately boring — one JSON object:
//!
//! ```json
//! {
//!   "format": "scar-maestro-cost-db",
//!   "format_version": 1,
//!   "cost_model_fingerprint": "0x…16 hex digits…",
//!   "entries": [ { "chiplet": {…}, "layer": {…}, "batch": 1, "cost": {…} }, … ]
//! }
//! ```
//!
//! Two headers gate every load, and a mismatch in either **rejects the
//! snapshot** (no partial restore, no silent fallback):
//!
//! * `format_version` — bumped when the schema changes shape.
//! * `cost_model_fingerprint` — a process-stable [`scar_hash`] fingerprint
//!   of the cost model's identity (algorithm tag + the roofline constants).
//!   Entries are *outputs* of that model; restoring them under a different
//!   model would silently mix two cost spaces. Changing the model without
//!   bumping [`COST_MODEL_TAG`] (or a constant) is a bug — the replay
//!   harness in `scar-bench` exists to catch exactly that drift.
//!
//! Entries are sorted by their serialized form, so a snapshot's bytes are
//! a pure function of its contents: saving the same database twice (or
//! from two processes that computed the same entries) produces identical
//! files — diffable, checksummable, committable as a CI artifact.
//!
//! Caveat inherited from the in-memory key: entries are keyed by
//! [`ChipletClassKey`](crate::ChipletClassKey), which excludes the
//! [`EnergyModel`] constants (exactly like the live
//! cache). The default energy constants participate in the cost-model
//! fingerprint instead, so snapshots taken under modified energy models
//! should not be shared across configurations.
//!
//! The package *interconnect* (`scar-mcm`'s `InterconnectSpec`)
//! deliberately does **not** participate in this
//! fingerprint: cost-database entries are compute-only — keyed on
//! (chiplet class, layer, batch) and produced by the roofline model —
//! while communication is priced per-schedule from the live topology at
//! evaluation time. A snapshot is therefore valid under any fabric.
//! Schedule *results* do depend on comm pricing, which is why the
//! interconnect folds into `scar-serve`'s schedule-cache fingerprints
//! (when attached) rather than here.

use crate::database::Key;
use crate::{CostDatabase, EnergyModel, LayerCost};
use scar_hash::StableHasher;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::hash::Hasher;
use std::path::Path;

/// Magic format tag: the first thing a loader checks.
const FORMAT_TAG: &str = "scar-maestro-cost-db";

/// Schema version of the snapshot format. Bump on any shape change.
pub const SNAPSHOT_FORMAT_VERSION: u64 = 1;

/// Identity tag of the cost-model *algorithm*. Bump whenever the roofline
/// arithmetic changes in a way the constants below cannot express — stale
/// snapshots must be rejected, not reinterpreted.
pub const COST_MODEL_TAG: &str = "maestro-roofline-v1";

/// A process-stable fingerprint of the cost model that produced (or will
/// consume) a snapshot: the algorithm tag, the model's tuning constants,
/// and the default energy constants. Computed with [`StableHasher`], so
/// the value is identical across processes, platforms, and Rust versions.
pub fn cost_model_fingerprint() -> u64 {
    let mut h = StableHasher::new();
    h.write(COST_MODEL_TAG.as_bytes());
    h.write_u64(crate::cost::NVDLA_ATOMIC_C);
    h.write_u64(crate::cost::NVDLA_CBUF_BYTES);
    h.write_u64(crate::cost::NVDLA_CONV_EFFICIENCY.to_bits());
    h.write_u64(crate::cost::LAYER_OVERHEAD_CYCLES.to_bits());
    let e = EnergyModel::default();
    h.write_u64(e.mac_pj.to_bits());
    h.write_u64(e.l1_pj_per_byte.to_bits());
    h.write_u64(e.l2_pj_per_byte.to_bits());
    h.finish()
}

/// Why a snapshot failed to save or load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// The file is not a well-formed snapshot (bad JSON, missing fields,
    /// wrong format tag, undeserializable entry).
    Malformed(String),
    /// The snapshot was written by a different schema version.
    VersionMismatch {
        /// Version recorded in the file.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
    /// The snapshot was produced by a different cost model — its entries
    /// are not comparable to what this build would compute.
    CostModelMismatch {
        /// Fingerprint recorded in the file.
        found: u64,
        /// This build's [`cost_model_fingerprint`].
        expected: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "snapshot I/O error: {m}"),
            SnapshotError::Malformed(m) => write!(f, "malformed cost-db snapshot: {m}"),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "cost-db snapshot version mismatch: file has format_version {found}, \
                 this build reads {expected} — regenerate the snapshot"
            ),
            SnapshotError::CostModelMismatch { found, expected } => write!(
                f,
                "cost-db snapshot was produced by a different cost model \
                 (fingerprint {found:#018x}, this build is {expected:#018x}) — \
                 its entries are not comparable; regenerate the snapshot"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One serialized entry: the full key plus the memoized cost.
struct SnapshotEntry {
    key: Key,
    cost: LayerCost,
}

impl Serialize for SnapshotEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("chiplet".to_string(), self.key.0.to_value()),
            ("layer".to_string(), self.key.1.to_value()),
            ("batch".to_string(), Value::UInt(self.key.2)),
            ("cost".to_string(), self.cost.to_value()),
        ])
    }
}

impl Deserialize for SnapshotEntry {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::DeError::expected("object", "SnapshotEntry", v))?;
        Ok(Self {
            key: (
                serde::__field(obj, "chiplet", "SnapshotEntry")?,
                serde::__field(obj, "layer", "SnapshotEntry")?,
                serde::__field(obj, "batch", "SnapshotEntry")?,
            ),
            cost: serde::__field(obj, "cost", "SnapshotEntry")?,
        })
    }
}

impl CostDatabase {
    /// Serializes every memoized entry into the versioned snapshot format
    /// (pretty-printed JSON; see the module docs). Output is deterministic:
    /// entries sort by their serialized form.
    pub fn snapshot_json(&self) -> String {
        let mut entries: Vec<(String, Value)> = self
            .raw_entries()
            .into_iter()
            .map(|(key, cost)| {
                let v = SnapshotEntry { key, cost }.to_value();
                (serde::write_compact(&v), v)
            })
            .collect();
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let entry_values: Vec<Value> = entries.into_iter().map(|(_, v)| v).collect();
        let root = Value::Object(vec![
            ("format".to_string(), Value::Str(FORMAT_TAG.to_string())),
            (
                "format_version".to_string(),
                Value::UInt(SNAPSHOT_FORMAT_VERSION),
            ),
            (
                "cost_model_fingerprint".to_string(),
                Value::Str(format!("{:#018x}", cost_model_fingerprint())),
            ),
            ("entries".to_string(), Value::Array(entry_values)),
        ]);
        serde::write_pretty(&root)
    }

    /// Writes the snapshot to `path` (atomically: a temp file in the same
    /// directory, then rename, so a crashed writer never leaves a torn
    /// snapshot for the next loader to reject). The temp name is unique
    /// per call (pid + a process-wide counter), so concurrent writers
    /// sharing one path — across processes *or* threads — cannot
    /// interleave into each other's temp file; last rename wins with a
    /// complete snapshot either way.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = path.as_ref();
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let io = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        std::fs::write(&tmp, self.snapshot_json()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Evicts least-recently-used entries until at most `max_entries`
    /// remain, returning how many were dropped. Recency is measured in
    /// *usage epochs*: every touch (hit, miss, restore) stamps the entry
    /// with the current epoch, and the epoch only advances here, at the
    /// end of each compaction pass — so a "generation" of recency is one
    /// compaction round (in serving, one run), not one racy access.
    /// Within an epoch, ties break on the entry's serialized form, the
    /// same total order the snapshot writer sorts by: which entries
    /// survive is a pure function of the database contents and stamps,
    /// never of thread interleaving.
    ///
    /// An evicted entry is not an error — the next lookup re-evaluates
    /// (and re-counts) it like any cold miss.
    pub fn compact(&self, max_entries: usize) -> usize {
        let entries = self.stamped_entries();
        let evicted = if entries.len() > max_entries {
            let mut ranked: Vec<(u64, String, Key)> = entries
                .into_iter()
                .map(|(key, cost, used)| {
                    let form = serde::write_compact(
                        &SnapshotEntry {
                            key: key.clone(),
                            cost,
                        }
                        .to_value(),
                    );
                    (used, form, key)
                })
                .collect();
            // most recent first; ties in serialized order
            ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            let victims: Vec<Key> = ranked
                .split_off(max_entries)
                .into_iter()
                .map(|(_, _, key)| key)
                .collect();
            self.remove_keys(&victims)
        } else {
            0
        };
        self.advance_epoch();
        evicted
    }

    /// Parses snapshot text and merges its entries into this database
    /// (existing entries are overwritten — they are equal by construction
    /// when both sides ran the same cost model). Returns the number of
    /// entries that were new.
    ///
    /// # Errors
    ///
    /// Rejects the *whole* snapshot — no entries are absorbed — on a bad
    /// format tag or JSON ([`SnapshotError::Malformed`]), a schema version
    /// mismatch ([`SnapshotError::VersionMismatch`]), or a cost-model
    /// fingerprint mismatch ([`SnapshotError::CostModelMismatch`]).
    pub fn absorb_snapshot(&self, text: &str) -> Result<usize, SnapshotError> {
        let root = serde::parse_value(text)
            .map_err(|e| SnapshotError::Malformed(format!("invalid JSON: {e}")))?;
        match root.get("format").and_then(Value::as_str) {
            Some(FORMAT_TAG) => {}
            Some(other) => {
                return Err(SnapshotError::Malformed(format!(
                    "format tag {other:?}, expected {FORMAT_TAG:?}"
                )))
            }
            None => {
                return Err(SnapshotError::Malformed(
                    "missing `format` tag — not a cost-db snapshot".to_string(),
                ))
            }
        }
        let version = root
            .get("format_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| SnapshotError::Malformed("missing `format_version`".to_string()))?;
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let fp_text = root
            .get("cost_model_fingerprint")
            .and_then(Value::as_str)
            .ok_or_else(|| {
                SnapshotError::Malformed("missing `cost_model_fingerprint`".to_string())
            })?;
        let found = parse_fingerprint(fp_text).ok_or_else(|| {
            SnapshotError::Malformed(format!(
                "unparsable cost_model_fingerprint {fp_text:?} (expected 0x-prefixed hex)"
            ))
        })?;
        let expected = cost_model_fingerprint();
        if found != expected {
            return Err(SnapshotError::CostModelMismatch { found, expected });
        }
        let entries = root
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| SnapshotError::Malformed("missing `entries` array".to_string()))?;
        let parsed: Vec<(Key, LayerCost)> = entries
            .iter()
            .map(|v| {
                SnapshotEntry::from_value(v)
                    .map(|e| (e.key, e.cost))
                    .map_err(|e| SnapshotError::Malformed(e.to_string()))
            })
            .collect::<Result<_, _>>()?;
        Ok(self.insert_raw(parsed))
    }

    /// Reads and absorbs a snapshot file. Returns the number of entries
    /// that were new to this database.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read; otherwise the
    /// [`CostDatabase::absorb_snapshot`] rejections.
    pub fn load_snapshot_into(&self, path: impl AsRef<Path>) -> Result<usize, SnapshotError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        self.absorb_snapshot(&text)
    }

    /// A fresh database restored from a snapshot file.
    ///
    /// # Errors
    ///
    /// Same rejections as [`CostDatabase::load_snapshot_into`].
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let db = Self::new();
        db.load_snapshot_into(path)?;
        Ok(db)
    }
}

/// Parses the `"0x…"` hex fingerprint header.
fn parse_fingerprint(text: &str) -> Option<u64> {
    u64::from_str_radix(text.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChipletConfig, Dataflow};
    use scar_workloads::LayerKind;

    fn populated() -> CostDatabase {
        let db = CostDatabase::new();
        let nvd = ChipletConfig::datacenter(Dataflow::NvdlaLike);
        let shi = ChipletConfig::arvr(Dataflow::ShidiannaoLike);
        for batch in [1, 2, 8] {
            db.get(&nvd, &LayerKind::Gemm { m: 64, k: 64, n: 8 }, batch);
            db.get(&shi, &LayerKind::Eltwise { elements: 4096 }, batch);
        }
        db
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let db = populated();
        let json = db.snapshot_json();
        let restored = CostDatabase::new();
        let added = restored.absorb_snapshot(&json).unwrap();
        assert_eq!(added, db.len());
        assert_eq!(restored.len(), db.len());
        // restored lookups are bit-identical and cost zero evaluations
        assert_eq!(restored.evaluations(), 0);
        let nvd = ChipletConfig::datacenter(Dataflow::NvdlaLike);
        let g = LayerKind::Gemm { m: 64, k: 64, n: 8 };
        assert_eq!(restored.get(&nvd, &g, 2), db.get(&nvd, &g, 2));
        assert_eq!(restored.evaluations(), 0, "lookup served from snapshot");
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let a = populated().snapshot_json();
        let b = populated().snapshot_json();
        assert_eq!(a, b, "same entries must serialize to identical bytes");
    }

    #[test]
    fn save_and_load_via_files() {
        let db = populated();
        let path = std::env::temp_dir().join("scar_maestro_snapshot_test.json");
        db.save_snapshot(&path).unwrap();
        let restored = CostDatabase::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.len(), db.len());
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let db = CostDatabase::new();
        assert!(matches!(
            db.absorb_snapshot("{ not json"),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            db.absorb_snapshot(r#"{"some":"other file"}"#),
            Err(SnapshotError::Malformed(_))
        ));
        // right tag, truncated body
        let text = format!(r#"{{"format": "{FORMAT_TAG}"}}"#);
        assert!(matches!(
            db.absorb_snapshot(&text),
            Err(SnapshotError::Malformed(_))
        ));
        assert_eq!(db.len(), 0, "rejected snapshots absorb nothing");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = populated().snapshot_json();
        let bumped = json.replace(
            &format!("\"format_version\": {SNAPSHOT_FORMAT_VERSION}"),
            &format!("\"format_version\": {}", SNAPSHOT_FORMAT_VERSION + 1),
        );
        assert_ne!(json, bumped, "test must actually rewrite the version");
        let db = CostDatabase::new();
        match db.absorb_snapshot(&bumped) {
            Err(SnapshotError::VersionMismatch { found, expected }) => {
                assert_eq!(found, SNAPSHOT_FORMAT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn cost_model_mismatch_is_rejected() {
        let json = populated().snapshot_json();
        let real = format!("{:#018x}", cost_model_fingerprint());
        let fake = format!("{:#018x}", cost_model_fingerprint() ^ 1);
        let swapped = json.replace(&real, &fake);
        assert_ne!(json, swapped);
        let db = CostDatabase::new();
        match db.absorb_snapshot(&swapped) {
            Err(SnapshotError::CostModelMismatch { found, expected }) => {
                assert_eq!(found, expected ^ 1);
            }
            other => panic!("expected CostModelMismatch, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        // two computations (stand-ins for two processes of the same build)
        assert_eq!(cost_model_fingerprint(), cost_model_fingerprint());
        // and it is derived from the documented tag
        let mut h = StableHasher::new();
        h.write(COST_MODEL_TAG.as_bytes());
        assert_ne!(h.finish(), 0);
    }

    #[test]
    fn compact_is_a_noop_under_the_bound() {
        let db = populated();
        let before = db.len();
        assert_eq!(db.compact(before), 0);
        assert_eq!(db.len(), before);
        // the pass still advances the epoch: the next round's touches
        // out-rank everything from this one
        assert_eq!(db.epoch(), 1);
    }

    #[test]
    fn compact_evicts_least_recently_used_first() {
        let db = populated();
        let total = db.len();
        assert!(total > 2);
        // one compaction round ends epoch 0; now touch two entries in
        // epoch 1 — they must be the survivors of the next pass
        db.compact(usize::MAX);
        let nvd = ChipletConfig::datacenter(Dataflow::NvdlaLike);
        let g = LayerKind::Gemm { m: 64, k: 64, n: 8 };
        let kept_a = db.get(&nvd, &g, 1);
        let kept_b = db.get(&nvd, &g, 8);
        assert_eq!(db.evaluations(), total as u64, "touches were hits");

        assert_eq!(db.compact(2), total - 2);
        assert_eq!(db.len(), 2);
        assert_eq!(db.get(&nvd, &g, 1), kept_a);
        assert_eq!(db.get(&nvd, &g, 8), kept_b);
        assert_eq!(
            db.evaluations(),
            total as u64,
            "survivors are still warm — no re-evaluation"
        );
        // an evicted key is simply a cold miss again
        let shi = ChipletConfig::arvr(Dataflow::ShidiannaoLike);
        db.get(&shi, &LayerKind::Eltwise { elements: 4096 }, 1);
        assert_eq!(db.evaluations(), total as u64 + 1);
    }

    #[test]
    fn compact_ties_break_deterministically() {
        // all stamps equal (no touches between construction and compact):
        // survivors are decided purely by the serialized-form order, so
        // two identical databases compact to identical snapshots
        let snap = |max: usize| {
            let db = populated();
            db.compact(max);
            db.snapshot_json()
        };
        assert_eq!(snap(3), snap(3));
        // and the survivors are a subset of the uncompacted snapshot
        let full = populated().snapshot_json();
        for line in snap(3).lines().filter(|l| l.contains("\"batch\"")) {
            assert!(full.contains(line.trim()), "survivor {line:?} not in full");
        }
    }

    /// A compaction before the save bounds the file: only the survivors
    /// are written.
    #[test]
    fn compact_then_save_bounds_the_file() {
        let db = populated();
        let total = db.len();
        let path = std::env::temp_dir().join("scar_maestro_compact_test.json");
        assert_eq!(db.compact(2), total - 2);
        db.save_snapshot(&path).unwrap();
        let restored = CostDatabase::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.len(), 2);
        // without a compaction the save keeps everything
        let db2 = populated();
        let path2 = std::env::temp_dir().join("scar_maestro_compact_test2.json");
        db2.save_snapshot(&path2).unwrap();
        let restored2 = CostDatabase::load_snapshot(&path2).unwrap();
        std::fs::remove_file(&path2).ok();
        assert_eq!(restored2.len(), total);
    }

    #[test]
    fn absorb_reports_only_new_entries() {
        let db = populated();
        let json = db.snapshot_json();
        // absorbing into the database that produced it adds nothing
        assert_eq!(db.absorb_snapshot(&json).unwrap(), 0);
        // a half-warm database only counts the missing half
        let partial = CostDatabase::new();
        let nvd = ChipletConfig::datacenter(Dataflow::NvdlaLike);
        partial.get(&nvd, &LayerKind::Gemm { m: 64, k: 64, n: 8 }, 1);
        let added = partial.absorb_snapshot(&json).unwrap();
        assert_eq!(added, db.len() - 1);
    }
}
