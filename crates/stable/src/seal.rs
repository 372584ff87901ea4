//! CRC sealing shared by checkpoint generations and remote-store
//! manifests: a 4-byte CRC-32 of the body followed by a 4-byte magic.
//! A truncated blob loses the magic, a bit-flip breaks the CRC —
//! either way the blob is rejected at load time.

use lclog_wire::crc32;

const TRAILER_MAGIC: &[u8; 4] = b"LCKP";
pub(crate) const TRAILER_LEN: usize = 8;

/// Append the CRC-32 + magic trailer to `body`, in place: a buffer
/// allocated with [`TRAILER_LEN`] bytes to spare does not grow.
pub(crate) fn seal(body: &mut Vec<u8>) {
    let crc = crc32(body);
    body.extend_from_slice(&crc.to_le_bytes());
    body.extend_from_slice(TRAILER_MAGIC);
}

/// Verify the trailer and return the body, a window into `blob`, or
/// `None` if the blob is torn or corrupt.
pub(crate) fn unseal(blob: &[u8]) -> Option<&[u8]> {
    if blob.len() < TRAILER_LEN {
        return None;
    }
    let (body, trailer) = blob.split_at(blob.len() - TRAILER_LEN);
    if &trailer[4..] != TRAILER_MAGIC {
        return None;
    }
    let want = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes"));
    (crc32(body) == want).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_detects_tearing_and_flips() {
        let mut sealed = Vec::with_capacity(7 + TRAILER_LEN);
        sealed.extend_from_slice(b"payload");
        let allocated = sealed.as_ptr();
        seal(&mut sealed);
        assert_eq!(sealed.as_ptr(), allocated, "sealed in place");
        assert_eq!(unseal(&sealed), Some(&b"payload"[..]));
        assert!(unseal(&sealed[..sealed.len() - 3]).is_none(), "torn");
        let mut flipped = sealed.clone();
        flipped[1] ^= 0x04;
        assert!(unseal(&flipped).is_none(), "bit flip");
        assert!(unseal(b"x").is_none(), "too short");
    }
}
