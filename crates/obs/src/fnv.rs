//! FNV-1a, 64-bit, fed whole little-endian words: the one fingerprint
//! behind the tree's state digests (the fluid engine's, the kernel
//! scaling cells'). Committed artifacts carry its outputs, so the
//! constants and the byte order are part of their format.

/// A running 64-bit FNV-1a hash over little-endian words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The empty hash (the offset basis).
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Folds in the eight bytes of `v`, least significant first.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds in `v` as its low word, then its high word.
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// The hash of everything folded in so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published algorithm over a byte string.
    fn reference(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn matches_the_published_vectors() {
        assert_eq!(reference(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(reference(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(reference(b"foobar"), 0x8594_4171_F739_67E8);
        assert_eq!(Fnv1a::default().finish(), reference(b""));
    }

    #[test]
    fn words_hash_as_their_little_endian_bytes() {
        let words = [0u64, 1, 0x0123_4567_89AB_CDEF, u64::MAX];
        let mut h = Fnv1a::default();
        let mut bytes = Vec::new();
        for w in words {
            h.u64(w);
            bytes.extend(w.to_le_bytes());
        }
        let wide = 0xFEDC_BA98_7654_3210_0011_2233_4455_6677u128;
        h.u128(wide);
        bytes.extend(wide.to_le_bytes());
        assert_eq!(h.finish(), reference(&bytes));
    }
}
