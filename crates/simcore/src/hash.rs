//! One cheap deterministic hasher for the simulator's integer-keyed
//! host-side maps.
//!
//! SipHash buys resistance to adversarial keys the simulator never
//! sees, at several times the cost of one multiply. Three callers sit
//! on hot paths keyed by a single integer and use [`KeyMap`] instead:
//!
//! - `apps::agg::AggState` — the per-tuple fold over `u64` keys;
//! - `simserve::ArrivalGen` — per-tenant sequence numbers, one lookup
//!   per synthesized arrival;
//! - `simserve`'s per-tenant tables — the service's SLO records and the
//!   admission controller's queues and served time, several lookups per
//!   arrival at 10^5 tenants.
//!
//! The hash is a pure function of the key, so a map's iteration order
//! repeats run to run — but it is an artefact of the table, not of the
//! simulation. No caller lets it reach an output: each either reads by
//! key only, or sorts before anything leaves the map.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci-multiply hasher for integer keys (`write_u64` /
/// `write_u32`), with an FNV-1a fallback for anything else.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; the key paths below are the integer writes.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, k: u64) {
        let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write_u32(&mut self, k: u32) {
        self.write_u64(k as u64);
    }
}

/// A `HashMap` hashed by [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<KeyHasher>::default().hash_one(x)
    }

    #[test]
    fn u32_keys_hash_like_their_u64_widening() {
        for k in [0u32, 1, 7, 99_999, u32::MAX] {
            assert_eq!(hash_of(k), hash_of(k as u64));
        }
        assert_ne!(hash_of(1u32), hash_of(2u32));
    }
}
