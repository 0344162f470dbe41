//! Process-stable hashing for fingerprints that outlive a process.
//!
//! `std::collections::hash_map::DefaultHasher` is SipHash-1-3 with an
//! explicitly *unspecified* algorithm: the standard library documents that
//! its output may change between Rust releases, and it is randomly keyed in
//! `HashMap` use. That makes it fine for in-memory tables and wrong for
//! anything persisted — a schedule-cache fingerprint written into a JSON
//! artifact by one binary must mean the same thing to the binary (or the
//! Rust version, or the platform) that reads it back.
//!
//! [`StableHasher`] is the repo's answer: FNV-1a over 64 bits, implemented
//! here in full so the algorithm is pinned by this file rather than by a
//! dependency. Two extra contracts on top of plain FNV-1a make it safe for
//! persistence:
//!
//! * **Platform-independent integer encoding.** The default
//!   [`Hasher::write_u64`]-family methods forward native-endian bytes
//!   (`to_ne_bytes`), so a big-endian host would hash the same value to a
//!   different fingerprint. Every integer write is overridden to feed
//!   little-endian bytes, and `write_usize`/`write_isize` are widened to
//!   64 bits so 32-bit targets agree with 64-bit ones.
//! * **No keying, no per-process state.** The initial state is the FNV
//!   offset basis; equal byte streams hash equal in every process.
//!
//! One in-memory key still uses `DefaultHasher` and matters beyond the
//! process: `scar_core::segmentation::subproblem_key` seeds the
//! segmentation sampler, so sampled schedules and the serving pins
//! depend on std's SipHash (DESIGN.md §8; a unit test pins one value).
//!
//! What this crate deliberately does *not* promise: stability of the byte
//! stream a `#[derive(Hash)]` impl produces. If a hashed type gains a
//! field or reorders variants, its fingerprint changes — that is the
//! desired behavior (the fingerprint *should* move when identity-relevant
//! content moves), and the pinned-value regression tests in `scar-serve`
//! exist to make such moves loud instead of silent.
//!
//! ```
//! use scar_hash::{stable_hash, StableHasher};
//! use std::hash::{Hash, Hasher};
//!
//! let mut h = StableHasher::new();
//! "EyeCod".hash(&mut h);
//! 42u64.hash(&mut h);
//! let a = h.finish();
//! assert_eq!(a, stable_hash(&("EyeCod", 42u64)), "one traversal, same bytes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hash::{Hash, Hasher};

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a [`Hasher`] whose output is identical across processes,
/// platforms, and Rust releases (see the crate docs for the exact
/// contract). Use it wherever a hash is persisted or compared across
/// process boundaries; keep `DefaultHasher` for purely in-memory tables.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self {
            state: FNV_OFFSET_BASIS,
        }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    // Integer writes are pinned to little-endian so the fingerprint of a
    // value does not depend on the host's byte order (the trait defaults
    // forward to_ne_bytes), and usize/isize are widened to 64 bits so
    // 32- and 64-bit targets agree.

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// The stable fingerprint of one hashable value: a fresh [`StableHasher`]
/// fed `value`, finished.
pub fn stable_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// The stable fingerprint of a raw byte string (no length prefix, no
/// terminator — exactly `FNV-1a(bytes)`). This is the form pinned by the
/// published FNV test vectors.
pub fn stable_hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo reference
    /// implementation). If any of these move, the algorithm itself changed
    /// — never accept that silently.
    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(stable_hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_hash_bytes(b"foobar"), 0x85944171f73967e8);
        assert_eq!(stable_hash_bytes(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    /// Integer writes must not depend on the host byte order: the byte
    /// stream is pinned little-endian, so the fingerprint of `0x0102` is
    /// the fingerprint of the bytes `[0x02, 0x01]` everywhere.
    #[test]
    fn integer_writes_are_little_endian() {
        let mut h = StableHasher::new();
        h.write_u16(0x0102);
        assert_eq!(h.finish(), stable_hash_bytes(&[0x02, 0x01]));

        let mut h = StableHasher::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            h.finish(),
            stable_hash_bytes(&[8, 7, 6, 5, 4, 3, 2, 1]),
            "u64 is fed LSB first"
        );
    }

    /// usize hashes exactly like the same value as u64, so 32- and 64-bit
    /// targets produce one fingerprint.
    #[test]
    fn usize_widens_to_u64() {
        assert_eq!(stable_hash(&42usize), stable_hash(&42u64));
        let mut a = StableHasher::new();
        a.write_usize(7);
        let mut b = StableHasher::new();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    /// The whole point: two independent hasher instances (stand-ins for
    /// two processes) agree on composite `Hash` values.
    #[test]
    fn independent_instances_agree() {
        let value = ("Het-Sides", 9usize, [1u64, 2, 3], Some(-5i32));
        assert_eq!(stable_hash(&value), stable_hash(&value));
        let mut h = StableHasher::new();
        value.hash(&mut h);
        assert_eq!(h.finish(), stable_hash(&value));
    }

    /// Pinned composite-value fingerprints: these encode the full contract
    /// (FNV-1a + LE integers + std's `Hash` byte streams for str/tuples).
    /// A Rust release changing `Hash for str` would surface here.
    #[test]
    fn pinned_composite_fingerprints() {
        assert_eq!(stable_hash(&42u64), stable_hash_bytes(&42u64.to_le_bytes()));
        // str hashes its bytes then a 0xff terminator byte
        assert_eq!(stable_hash("hello"), stable_hash_bytes(b"hello\xff"));
    }

    #[test]
    fn default_is_new() {
        assert_eq!(
            StableHasher::default().finish(),
            StableHasher::new().finish()
        );
    }
}
