//! # lclog-wire
//!
//! A minimal, self-contained binary codec used by every layer of the
//! lclog stack (protocol piggybacks, checkpoint images, fabric
//! envelopes).
//!
//! The format is deliberately simple and stable:
//!
//! * fixed-width little-endian encodings for primitive integers and
//!   floats,
//! * LEB128 varints for lengths and counters (message indices grow
//!   unboundedly but are usually small),
//! * length-prefixed sequences for `Vec<T>`, `String`, and byte
//!   buffers,
//! * a one-byte presence tag for `Option<T>`.
//!
//! There is no reflection and no external format dependency; the
//! [`impl_wire_struct!`] and [`impl_wire_enum!`] macros generate
//! field-by-field implementations for the handful of protocol structs
//! that need them.
//!
//! ## Example
//!
//! ```
//! use lclog_wire::{encode_to_vec, decode_from_slice};
//!
//! let xs: Vec<u32> = vec![1, 2, 3];
//! let bytes = encode_to_vec(&xs);
//! let back: Vec<u32> = decode_from_slice(&bytes).unwrap();
//! assert_eq!(xs, back);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
mod error;
mod macros;
mod reader;
mod traits;
pub mod varint;

pub use crc32::{crc32, Crc32};
pub use error::WireError;
pub use reader::Reader;
pub use traits::{Decode, Encode};

use bytes::{Bytes, BytesMut};

/// Encode a value into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    buf
}

/// Append a value's encoding to a reusable [`BytesMut`] frame builder.
///
/// This is the single-pass framing primitive: reserve once, encode
/// header and payload into the same allocation, then
/// [`BytesMut::freeze`] and slice out zero-copy windows.
pub fn encode_into<T: Encode + ?Sized>(value: &T, buf: &mut BytesMut) {
    buf.reserve(value.encoded_len());
    value.encode(buf.as_mut_vec());
}

/// Encode a value into a frozen [`Bytes`] buffer sized exactly to its
/// encoding (one allocation, no copy on freeze).
pub fn encode_to_bytes<T: Encode + ?Sized>(value: &T) -> Bytes {
    let mut buf = BytesMut::with_capacity(value.encoded_len());
    value.encode(buf.as_mut_vec());
    buf.freeze()
}

/// Decode a value from a refcounted buffer, requiring the buffer to be
/// fully consumed. Byte-buffer fields (`Bytes`) decode as **zero-copy
/// windows** into `buf` instead of copies.
pub fn decode_from_bytes<T: Decode>(buf: &Bytes) -> Result<T, WireError> {
    let mut reader = Reader::from_bytes(buf);
    let value = T::decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Decode a value from the front of a refcounted buffer, returning the
/// value and the number of bytes consumed. Like [`decode_from_bytes`],
/// nested `Bytes` fields alias `buf` rather than copying.
pub fn decode_prefix_bytes<T: Decode>(buf: &Bytes) -> Result<(T, usize), WireError> {
    let mut reader = Reader::from_bytes(buf);
    let value = T::decode(&mut reader)?;
    let consumed = reader.position();
    Ok((value, consumed))
}

/// Decode a value from a byte slice, requiring the slice to be fully
/// consumed.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Decode a value from the front of a byte slice, returning the value
/// and the number of bytes consumed.
pub fn decode_prefix<T: Decode>(bytes: &[u8]) -> Result<(T, usize), WireError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode(&mut reader)?;
    let consumed = reader.position();
    Ok((value, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_vec() {
        let xs: Vec<u64> = vec![0, 1, u64::MAX, 42];
        let bytes = encode_to_vec(&xs);
        let back: Vec<u64> = decode_from_slice(&bytes).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn decode_prefix_reports_consumed() {
        let mut buf = encode_to_vec(&7u32);
        buf.extend_from_slice(&[0xAA, 0xBB]);
        let (v, used): (u32, usize) = decode_prefix(&buf).unwrap();
        assert_eq!(v, 7);
        assert_eq!(used, 4);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode_to_vec(&7u32);
        buf.push(0);
        let err = decode_from_slice::<u32>(&buf).unwrap_err();
        assert!(matches!(err, WireError::TrailingBytes { .. }));
    }
}
