//! LEB128 variable-length integer encoding.
//!
//! Message indices and dependency counters grow without bound but are
//! small in practice, so varints keep piggyback bytes proportional to
//! the *useful* information — which matters when comparing protocol
//! piggyback sizes (Fig. 6 of the paper counts identifiers; byte
//! accounting uses this encoding).

use crate::{Reader, WireError};

/// Maximum encoded size of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Append the LEB128 encoding of `value` to `buf`.
pub fn write_u64(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Number of bytes `write_u64` would append for `value`.
pub fn len_u64(value: u64) -> usize {
    // 1 byte per 7 significant bits, minimum 1.
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7).max(1)
}

/// Read a LEB128-encoded `u64` from `reader`.
pub fn read_u64(reader: &mut Reader<'_>) -> Result<u64, WireError> {
    let (value, len) = decode(reader.rest())?;
    reader.take(len)?;
    Ok(value)
}

/// Decode one varint from the front of `bytes`: its value and length.
/// An input that ends inside the varint is `UnexpectedEof`; ten bytes
/// that do not end it, or a tenth byte carrying more than the one bit
/// left of a `u64`, are `VarintOverflow`.
fn decode(bytes: &[u8]) -> Result<(u64, usize), WireError> {
    let mut value: u64 = 0;
    for (i, &byte) in bytes.iter().take(MAX_VARINT_LEN).enumerate() {
        let low = (byte & 0x7F) as u64;
        if i == MAX_VARINT_LEN - 1 && low > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= low << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    if bytes.len() < MAX_VARINT_LEN {
        Err(WireError::UnexpectedEof {
            needed: 1,
            remaining: 0,
        })
    } else {
        Err(WireError::VarintOverflow)
    }
}

/// The continuation bit of each byte of a little-endian word.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Append `values` as back-to-back varints, with no length prefix: the
/// bytes `write_u64` would append for each in turn. Eight values below
/// 0x80 go out as one byte each in one `extend`.
pub fn write_run(buf: &mut Vec<u8>, values: &[u64]) {
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        if chunk.iter().fold(0, |acc, &v| acc | v) < 0x80 {
            buf.extend(chunk.iter().map(|&v| v as u8));
        } else {
            for &v in chunk {
                write_u64(buf, v);
            }
        }
    }
    for &v in chunks.remainder() {
        write_u64(buf, v);
    }
}

/// Bytes [`write_run`] appends for `values`: eight values below 0x80
/// count as eight bytes with one test.
pub fn run_len(values: &[u64]) -> usize {
    let mut chunks = values.chunks_exact(8);
    let mut len = 0;
    for chunk in &mut chunks {
        len += if chunk.iter().fold(0, |acc, &v| acc | v) < 0x80 {
            8
        } else {
            chunk.iter().map(|&v| len_u64(v)).sum()
        };
    }
    len + chunks
        .remainder()
        .iter()
        .map(|&v| len_u64(v))
        .sum::<usize>()
}

/// Read `n` back-to-back varints from `reader`, handing each to
/// `f(index, value)` in order; allocates nothing. Accepts and rejects
/// exactly what `n` calls of [`read_u64`] would, but takes an 8-byte
/// word with no continuation bit as eight values at once. On an error
/// `f` has seen the values before it and the reader has not moved.
pub fn read_run(
    reader: &mut Reader<'_>,
    n: usize,
    mut f: impl FnMut(usize, u64),
) -> Result<(), WireError> {
    let bytes = reader.rest();
    let (mut pos, mut i) = (0, 0);
    while i < n {
        if n - i >= 8 {
            if let Some(word) = bytes[pos..].first_chunk::<8>() {
                if u64::from_le_bytes(*word) & HIGH_BITS == 0 {
                    for (k, &b) in word.iter().enumerate() {
                        f(i + k, u64::from(b));
                    }
                    pos += 8;
                    i += 8;
                    continue;
                }
            }
        }
        let (value, len) = decode(&bytes[pos..])?;
        f(i, value);
        pos += len;
        i += 1;
    }
    reader.take(pos)?;
    Ok(())
}

/// ZigZag-encode a signed value so small magnitudes stay small.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        assert_eq!(buf.len(), len_u64(v), "len mismatch for {v}");
        let mut r = Reader::new(&buf);
        let out = read_u64(&mut r).unwrap();
        r.finish().unwrap();
        out
    }

    #[test]
    fn roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn lengths_match_expectation() {
        assert_eq!(len_u64(0), 1);
        assert_eq!(len_u64(127), 1);
        assert_eq!(len_u64(128), 2);
        assert_eq!(len_u64(u64::MAX), 10);
    }

    #[test]
    fn overflow_detected() {
        // 11 continuation bytes cannot be a valid u64 varint.
        let bytes = [0xFFu8; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(read_u64(&mut r).unwrap_err(), WireError::VarintOverflow);
    }

    #[test]
    fn tenth_byte_overflow_detected() {
        // 9 continuation bytes then a final byte with more than the
        // single remaining bit set.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x02);
        let mut r = Reader::new(&bytes);
        assert_eq!(read_u64(&mut r).unwrap_err(), WireError::VarintOverflow);
    }

    /// `n` calls of `read_u64`, the reference `read_run` must match.
    fn read_each(bytes: &[u8], n: usize) -> Result<(Vec<u64>, usize), WireError> {
        let mut r = Reader::new(bytes);
        let values = (0..n).map(|_| read_u64(&mut r)).collect::<Result<_, _>>()?;
        Ok((values, r.position()))
    }

    fn read_all(bytes: &[u8], n: usize) -> Result<(Vec<u64>, usize), WireError> {
        let mut r = Reader::new(bytes);
        let mut values = Vec::new();
        read_run(&mut r, n, |i, v| {
            assert_eq!(i, values.len(), "indices arrive in order");
            values.push(v);
        })?;
        Ok((values, r.position()))
    }

    #[test]
    fn runs_match_one_varint_at_a_time() {
        let edges = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX];
        // Runs of every length up to 40, cycling through the edges from
        // every offset, so words start on every kind of byte.
        for n in 0..40 {
            for offset in 0..edges.len() {
                let values: Vec<u64> = (0..n)
                    .map(|i| edges[(i * i + offset) % edges.len()])
                    .collect();
                let mut run = Vec::new();
                write_run(&mut run, &values);
                let mut each = Vec::new();
                for &v in &values {
                    write_u64(&mut each, v);
                }
                assert_eq!(run, each, "write_run bytes for {values:?}");
                assert_eq!(run_len(&values), run.len(), "run_len of {values:?}");
                assert_eq!(read_all(&run, n), Ok((values.clone(), run.len())));
                // Every cut, every bad tail, as the reference sees it.
                for cut in 0..run.len() {
                    assert_eq!(read_all(&run[..cut], n), read_each(&run[..cut], n));
                }
                let tenth_overflows = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
                for tail in [
                    [0x80u8; 11].as_slice(),
                    &[0xFF; 9],
                    &[0x80, 0x00],
                    &tenth_overflows,
                ] {
                    let mut bad = run.clone();
                    bad.extend_from_slice(tail);
                    assert_eq!(read_all(&bad, n + 1), read_each(&bad, n + 1));
                }
            }
        }
    }

    #[test]
    fn a_failed_run_leaves_the_reader_where_it_was() {
        let bytes = [1u8, 2, 3, 0x80];
        let mut r = Reader::new(&bytes);
        let mut seen = 0;
        assert!(read_run(&mut r, 4, |_, _| seen += 1).is_err());
        assert_eq!((seen, r.position()), (3, 0));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456, 123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes encode small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
