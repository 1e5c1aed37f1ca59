//! Minimal `bytes`-compatible shim for the offline build: `Bytes` /
//! `BytesMut` buffers with the little-endian `u64` get/put surface the
//! transport layer frames its messages with.

/// An immutable byte buffer with a read cursor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: data.to_vec(), pos: 0 }
    }

    /// Remaining (unread) bytes as a vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data[self.pos..].to_vec()
    }

    /// Remaining (unread) length.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether no unread bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

/// A growable byte buffer for frame assembly.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data, pos: 0 }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte buffer (little-endian accessors).
pub trait Buf {
    /// Whether unread bytes remain.
    fn has_remaining(&self) -> bool;

    /// Reads the next `n` bytes, advancing the cursor.
    fn take_bytes(&mut self, n: usize) -> &[u8];

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_bytes(8).try_into().expect("8 bytes"))
    }
}

impl Buf for Bytes {
    fn has_remaining(&self) -> bool {
        !self.is_empty()
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        let start = self.pos;
        assert!(start + n <= self.data.len(), "buffer underrun");
        self.pos += n;
        &self.data[start..start + n]
    }
}

/// Write cursor over a growable buffer (little-endian accessors).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, Bytes, BytesMut};

    #[test]
    fn u64_round_trip() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u64_le(0xDEAD_BEEF_0102_0304);
        w.put_u64_le(u64::MAX);
        let mut r = Bytes::from(w.to_vec());
        assert_eq!(r.get_u64_le(), 0xDEAD_BEEF_0102_0304);
        assert_eq!(r.get_u64_le(), u64::MAX);
        assert!(!r.has_remaining());
    }

    #[test]
    fn copy_from_slice_preserves_content() {
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
    }
}
