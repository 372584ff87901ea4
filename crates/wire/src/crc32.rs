//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) used for
//! checkpoint trailers and manifests in stable storage — disks are
//! real, so stored bytes are checked. The network is reliable, as the
//! paper assumes, so nothing on the wire is.
//!
//! Slicing-by-8: eight const-built tables, eight bytes folded per
//! iteration (~0.4 ns/byte vs ~2.5 for the classic byte-at-a-time
//! loop). Zero dependencies; identical checksums.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // t[k][b] advances the CRC of byte `b` through k additional zero
    // bytes, so eight table lookups absorb eight input bytes at once.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// Incremental CRC-32 hasher: feed any number of slices with
/// [`Crc32::update`]; [`Crc32::finalize`] yields the same value
/// [`crc32`] would produce over their concatenation.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][((hi >> 24) & 0xFF) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final checksum over everything absorbed so far.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::{crc32, Crc32};

    #[test]
    fn concat_matches_contiguous() {
        let data = b"the frame header and then the payload bytes";
        for split in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), crc32(data), "split at {split}");
        }
        let mut h = Crc32::new();
        h.update(b"the frame ");
        h.update(b"");
        h.update(b"header and then the payload bytes");
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let clean = vec![0xA5u8; 64];
        let reference = crc32(&clean);
        for bit in 0..clean.len() * 8 {
            let mut corrupt = clean.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupt), reference, "bit {bit} undetected");
        }
    }
}
