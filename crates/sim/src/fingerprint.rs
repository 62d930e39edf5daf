//! Order-sensitive FNV-1a fingerprints for determinism checks.
//!
//! Fixed-seed simulations must be bit-reproducible; the golden tests and
//! the bench artifacts pin that property by hashing every deterministic
//! observable of a run into one `u64`. The hasher lives here so every
//! layer (core metrics, scenario reports, bench binaries) fingerprints
//! with the same algorithm.

/// Incremental FNV-1a accumulator.
#[derive(Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// Fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    /// Mix one `u64` (little-endian byte order).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix a float by bit pattern — runs must be bit-identical, so exact
    /// representation equality is the right notion (NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mix `bytes` as they are, in order, with no length prefix: `u64`
    /// mixes the same as its eight little-endian bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Mix a byte string (length-prefixed so concatenations can't collide).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Fnv::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::new();
        b.u64(1);
        b.u64(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.u64(2);
        c.u64(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let mut a = Fnv::new();
        a.f64(0.0);
        let mut b = Fnv::new();
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "+0.0 and -0.0 differ bitwise");
    }

    #[test]
    fn strings_are_length_prefixed() {
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn matches_reference_vector() {
        // FNV-1a of the single byte 0x00 (after the 8-byte LE encoding of 0
        // this is just eight zero bytes folded in).
        let mut h = Fnv::new();
        h.u64(0);
        assert_eq!(h.finish(), {
            let mut x: u64 = 0xcbf29ce484222325;
            for _ in 0..8 {
                x = x.wrapping_mul(0x100000001b3);
            }
            x
        });
    }
}
