use crate::{varint, Reader, WireError};
use bytes::Bytes;
use std::collections::BTreeMap;

/// Types that can be serialized into the lclog wire format.
pub trait Encode {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Exact number of bytes [`Encode::encode`] will append.
    fn encoded_len(&self) -> usize;

    /// Append the encodings of `items` back to back, as a `Vec<Self>`
    /// does after its length. Bytes override it with one copy.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }
}

/// Types that can be deserialized from the lclog wire format.
pub trait Decode: Sized {
    /// Decode a value from `reader`, consuming exactly its encoding.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! impl_fixed_int {
    ($($ty:ty => $n:expr),* $(,)?) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize { $n }
        }
        impl Decode for $ty {
            fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(reader.take_array::<$n>()?))
            }
        }
    )*};
}

impl_fixed_int! {
    u16 => 2, u32 => 4, u64 => 8,
    i8 => 1, i16 => 2, i32 => 4, i64 => 8,
}

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn encode_slice(items: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
}

impl Decode for u8 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(reader.take_array::<1>()?[0])
    }
}

impl Encode for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for f64 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_le_bytes(reader.take_array::<8>()?))
    }
}

impl Encode for f32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for f32 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_le_bytes(reader.take_array::<4>()?))
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                type_name: "bool",
                tag: tag as u64,
            }),
        }
    }
}

/// `usize` is encoded as a varint so the format is
/// architecture-independent.
impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(*self as u64)
    }
}

impl Decode for usize {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = varint::read_u64(reader)?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow { declared: v })
    }
}

fn decode_len(reader: &mut Reader<'_>, min_elem_size: usize) -> Result<usize, WireError> {
    let declared = varint::read_u64(reader)?;
    let len = usize::try_from(declared).map_err(|_| WireError::LengthOverflow { declared })?;
    // A sequence of `len` elements needs at least `len * min_elem_size`
    // bytes of input; reject corrupt prefixes before allocating.
    if min_elem_size > 0 && len > reader.remaining() / min_elem_size {
        return Err(WireError::LengthOverflow { declared });
    }
    Ok(len)
}

/// A slice encodes as the `Vec` holding it would.
impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.len() as u64);
        T::encode_slice(self, buf);
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_slice().encoded_len()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(reader, 1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(reader)?);
        }
        Ok(out)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.len()
    }
}

impl Decode for String {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(reader, 1)?;
        let bytes = reader.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.len() as u64);
        buf.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.len()
    }
}

/// Payload buffers travel as length-prefixed raw bytes.
impl Encode for Bytes {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.len() as u64);
        buf.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64) + self.len()
    }
}

impl Decode for Bytes {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(reader, 1)?;
        // Zero-copy when the reader is backed by a `Bytes` (see
        // `Reader::take_bytes`); copies otherwise.
        reader.take_bytes(len)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(reader)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Option",
                tag: tag as u64,
            }),
        }
    }
}

impl Encode for u128 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl Decode for u128 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u128::from_le_bytes(reader.take_array::<16>()?))
    }
}

impl Encode for i128 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl Decode for i128 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(i128::from_le_bytes(reader.take_array::<16>()?))
    }
}

impl Encode for char {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u32).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for char {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = u32::decode(reader)?;
        char::from_u32(raw).ok_or(WireError::InvalidTag {
            type_name: "char",
            tag: raw as u64,
        })
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        self.iter().map(Encode::encoded_len).sum()
    }
}

impl<T: Decode, const N: usize> Decode for [T; N] {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        // Build via Vec to avoid unsafe MaybeUninit gymnastics; N is
        // small in protocol structs.
        let mut items = Vec::with_capacity(N);
        for _ in 0..N {
            items.push(T::decode(reader)?);
        }
        match items.try_into() {
            Ok(array) => Ok(array),
            // We pushed exactly N items above.
            Err(_) => unreachable!("vector length is N by construction"),
        }
    }
}

/// Maps are encoded as sorted `(key, value)` sequences, so encodings
/// are canonical (deterministic piggyback sizes).
impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint::len_u64(self.len() as u64)
            + self
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum::<usize>()
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = decode_len(reader, 1)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(reader)?;
            let v = V::decode(reader)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(reader)?,)+))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl Encode for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Decode for () {
    fn decode(_reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::decode(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec};
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        assert_eq!(bytes.len(), value.encoded_len(), "encoded_len mismatch");
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn roundtrip_primitives() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(-5i32);
        roundtrip(i64::MIN);
        roundtrip(std::f64::consts::PI);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
        roundtrip(());
    }

    #[test]
    fn roundtrip_compound() {
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
        roundtrip("hello".to_string());
        roundtrip(String::new());
        roundtrip((1u8, 2u16, 3u32, 4u64, "x".to_string()));
        roundtrip(Bytes::from_static(b"payload"));
        roundtrip(Box::new(7i16));
    }

    #[test]
    fn invalid_bool_tag() {
        let err = decode_from_slice::<bool>(&[2]).unwrap_err();
        assert!(matches!(err, WireError::InvalidTag { type_name: "bool", tag: 2 }));
    }

    #[test]
    fn invalid_option_tag() {
        let err = decode_from_slice::<Option<u8>>(&[9]).unwrap_err();
        assert!(matches!(err, WireError::InvalidTag { type_name: "Option", tag: 9 }));
    }

    #[test]
    fn corrupt_length_prefix_rejected_without_allocation() {
        // Declares u64::MAX elements but provides none.
        let mut buf = Vec::new();
        crate::varint::write_u64(&mut buf, u64::MAX);
        let err = decode_from_slice::<Vec<u8>>(&buf).unwrap_err();
        assert!(matches!(err, WireError::LengthOverflow { .. }));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        crate::varint::write_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let err = decode_from_slice::<String>(&buf).unwrap_err();
        assert_eq!(err, WireError::InvalidUtf8);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_u64(v in any::<u64>()) {
            roundtrip(v);
        }

        #[test]
        fn prop_roundtrip_vec_u32(v in proptest::collection::vec(any::<u32>(), 0..200)) {
            roundtrip(v);
        }

        #[test]
        fn prop_roundtrip_string(s in ".*") {
            roundtrip(s);
        }

        #[test]
        fn prop_roundtrip_nested(v in proptest::collection::vec(
            (any::<u16>(), proptest::option::of(any::<i64>())), 0..50))
        {
            roundtrip(v);
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding random garbage must return an error or a value,
            // never panic or over-allocate.
            let _ = decode_from_slice::<Vec<(u32, String)>>(&bytes);
            let _ = decode_from_slice::<Option<Vec<u64>>>(&bytes);
            let _ = decode_from_slice::<String>(&bytes);
        }

        #[test]
        fn prop_usize_varint_roundtrip(v in any::<usize>()) {
            roundtrip(v);
        }

        #[test]
        fn prop_roundtrip_btreemap(m in proptest::collection::btree_map(any::<u32>(), any::<i64>(), 0..40)) {
            roundtrip(m);
        }

        #[test]
        fn prop_roundtrip_u128(v in any::<u128>()) {
            roundtrip(v);
        }

        #[test]
        fn prop_roundtrip_char(c in any::<char>()) {
            roundtrip(c);
        }
    }

    #[test]
    fn roundtrip_wide_types() {
        roundtrip(u128::MAX);
        roundtrip(i128::MIN);
        roundtrip('é');
        roundtrip([1u32, 2, 3]);
        roundtrip([0u8; 0]);
        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), vec![1u8]);
        m.insert("b".to_string(), vec![]);
        roundtrip(m);
    }

    #[test]
    fn invalid_char_rejected() {
        // 0xD800 is a lone surrogate: not a char.
        let bytes = 0xD800u32.to_le_bytes();
        let err = decode_from_slice::<char>(&bytes).unwrap_err();
        assert!(matches!(err, WireError::InvalidTag { type_name: "char", .. }));
    }

    #[test]
    fn btreemap_encoding_is_canonical() {
        let mut a = std::collections::BTreeMap::new();
        a.insert(2u8, 20u8);
        a.insert(1u8, 10u8);
        let mut b = std::collections::BTreeMap::new();
        b.insert(1u8, 10u8);
        b.insert(2u8, 20u8);
        assert_eq!(encode_to_vec(&a), encode_to_vec(&b));
    }
}
