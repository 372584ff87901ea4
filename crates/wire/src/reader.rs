use crate::WireError;
use bytes::Bytes;

/// A cursor over a byte slice used during decoding.
///
/// All reads are bounds-checked and return [`WireError::UnexpectedEof`]
/// rather than panicking, so a corrupt or truncated buffer can never
/// crash the protocol stack.
///
/// A reader built with [`Reader::from_bytes`] additionally remembers
/// the refcounted buffer it is cursoring over, which lets
/// [`Reader::take_bytes`] hand out **zero-copy windows** into that
/// buffer instead of copying. A plain [`Reader::new`] reader still
/// works everywhere; `take_bytes` then falls back to copying.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Create a reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0, backing: None }
    }

    /// Create a reader over a refcounted buffer; `take_bytes` will
    /// slice it without copying.
    pub fn from_bytes(buf: &'a Bytes) -> Self {
        Reader { bytes: buf.as_ref(), pos: 0, backing: Some(buf) }
    }

    /// Number of bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The bytes not yet consumed, without consuming them.
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Take the next `n` bytes as an owned [`Bytes`]. When the reader
    /// was built with [`Reader::from_bytes`], the result is a zero-copy
    /// window sharing the input's allocation; otherwise it copies.
    pub fn take_bytes(&mut self, n: usize) -> Result<Bytes, WireError> {
        match self.backing {
            Some(buf) => {
                if self.remaining() < n {
                    return Err(WireError::UnexpectedEof {
                        needed: n,
                        remaining: self.remaining(),
                    });
                }
                let out = buf.slice(self.pos..self.pos + n);
                self.pos += n;
                Ok(out)
            }
            None => Ok(Bytes::copy_from_slice(self.take(n)?)),
        }
    }

    /// Take a single byte.
    pub fn take_byte(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Take a fixed-size array of bytes.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }

    /// Require that the whole input has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_advances_position() {
        let data = [1u8, 2, 3, 4];
        let mut r = Reader::new(&data);
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        assert_eq!(r.position(), 2);
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.take_byte().unwrap(), 3);
        assert!(r.finish().is_err());
        assert_eq!(r.take_byte().unwrap(), 4);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn take_past_end_errors() {
        let data = [1u8];
        let mut r = Reader::new(&data);
        let err = r.take(2).unwrap_err();
        assert_eq!(
            err,
            WireError::UnexpectedEof {
                needed: 2,
                remaining: 1
            }
        );
        // Position unchanged after a failed read.
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn take_array_roundtrip() {
        let data = [9u8, 8, 7];
        let mut r = Reader::new(&data);
        let arr: [u8; 3] = r.take_array().unwrap();
        assert_eq!(arr, [9, 8, 7]);
    }

    #[test]
    fn take_bytes_aliases_backed_reader() {
        let buf = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mut r = Reader::from_bytes(&buf);
        assert_eq!(r.take_byte().unwrap(), 1);
        let win = r.take_bytes(3).unwrap();
        assert_eq!(win, &[2u8, 3, 4][..]);
        assert!(win.shares_allocation(&buf), "backed take_bytes must not copy");
        assert_eq!(r.remaining(), 1);
        // Over-read errors without advancing.
        assert!(r.take_bytes(2).is_err());
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn take_bytes_copies_without_backing() {
        let data = [7u8, 8, 9];
        let mut r = Reader::new(&data);
        let win = r.take_bytes(2).unwrap();
        assert_eq!(win, &[7u8, 8][..]);
        assert!(r.finish().is_err());
    }
}
