//! Byte buffers for datagrams and packet codecs: [`Bytes`], a cheaply
//! cloneable shared slice (`Arc<[u8]>` plus a window), [`BytesMut`], a
//! growable builder, and the big-endian cursor traits [`Buf`]/[`BufMut`]
//! the MQTT and transport codecs read and write through.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An immutable byte slice shared by reference count; `clone` and
/// [`Bytes::slice`] never copy the bytes.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from_vec(Vec::new())
    }

    /// A buffer holding a copy of static bytes.
    pub fn from_static(b: &'static [u8]) -> Bytes {
        Bytes::from_vec(b.to_vec())
    }

    /// A buffer holding a copy of `b`.
    pub fn copy_from_slice(b: &[u8]) -> Bytes {
        Bytes::from_vec(b.to_vec())
    }

    fn from_vec(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: v.into(), start: 0, end }
    }

    /// Number of bytes in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-window sharing the same allocation; panics when out of range.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Bytes {
        Bytes::from_static(b)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

/// A growable byte buffer, frozen into [`Bytes`] when complete.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(n) }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Append `s`.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Drop every byte, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Split off and return bytes `..at`, leaving `at..` in `self`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.buf.split_off(at);
        BytesMut { buf: std::mem::replace(&mut self.buf, rest) }
    }

    /// Reserve room for `n` more bytes.
    pub fn reserve(&mut self, n: usize) {
        self.buf.reserve(n);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// A read cursor over bytes; integer reads are big-endian and panic when
/// fewer bytes remain than they need.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);

    /// True while bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Read a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_be_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        self.advance(8);
        v
    }

    /// Read the next `n` bytes into a new [`Bytes`].
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let v = self.chunk()[..n].to_vec();
        self.advance(n);
        Bytes::from(v)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len());
        self.start += n;
    }
    /// Zero-copy: the result shares this buffer's allocation.
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let out = self.slice(..n);
        self.advance(n);
        out
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.buf.len()
    }
    fn chunk(&self) -> &[u8] {
        &self.buf
    }
    fn advance(&mut self, n: usize) {
        self.buf.drain(..n);
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// A write cursor; integer writes are big-endian.
pub trait BufMut {
    /// Append `s`.
    fn put_slice(&mut self, s: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}
