//! A stable 64-bit digest (FNV-1a) over simulated outputs. Unlike
//! `std`'s `DefaultHasher` its value is fixed across builds and
//! processes, so digests printed by two runs compare directly.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in a value through its `Debug` form, which prints every
    /// field (floats with all their digits).
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
        // Separator, so ("ab","c") and ("a","bc") differ.
        self.bytes(&[0xff]);
    }

    /// Fold another digest in.
    pub fn digest(&mut self, d: Digest) {
        self.u64(d.0);
    }

    /// One digest over a sequence of digests.
    pub fn fold(parts: &[Digest]) -> Digest {
        let mut d = Digest::default();
        for &p in parts {
            d.digest(p);
        }
        d
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_values() {
        let mut d = Digest::default();
        d.bytes(b"");
        assert_eq!(d.to_string(), "cbf29ce484222325");
        d.bytes(b"a");
        assert_eq!(d.to_string(), "af63dc4c8601ec8c");
    }

    #[test]
    fn debug_fields_are_separated() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.debug(&"ab");
        a.debug(&"c");
        b.debug(&"a");
        b.debug(&"bc");
        assert_ne!(a, b);
    }
}
