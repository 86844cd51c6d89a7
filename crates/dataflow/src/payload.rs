//! The data interchange trait between tasks.
//!
//! The runtime is generic over one payload type per workflow (typically an
//! enum covering every kind of value the workflow's tasks exchange). The
//! trait carries just enough structure for the runtime's two needs beyond
//! in-memory handoff: checkpoint serialization and an input size for the
//! cold-start duration estimate.

/// Values exchanged between tasks.
pub trait Payload: Send + Sync + 'static {
    /// Serializes the value for the checkpoint log.
    fn encode(&self) -> Vec<u8>;

    /// Inverse of [`Payload::encode`]; `None` on malformed input.
    fn decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;

    /// Approximate in-memory size in bytes: the input of a consumer's
    /// cold-start duration estimate
    /// ([`TimingStats::estimate_us`](crate::TimingStats::estimate_us)).
    /// Precision is not required.
    fn approx_size(&self) -> u64 {
        64
    }
}

/// A ready-made payload: an opaque byte buffer with small-integer helpers.
/// Good enough for tests, examples and workflows whose tasks communicate
/// through files (passing paths) or compact values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes(pub Vec<u8>);

impl Bytes {
    /// Encodes a `u64`.
    pub fn from_u64(v: u64) -> Self {
        Bytes(v.to_le_bytes().to_vec())
    }

    /// Decodes a `u64` if the buffer is exactly 8 bytes.
    pub fn as_u64(&self) -> Option<u64> {
        let arr: [u8; 8] = self.0.as_slice().try_into().ok()?;
        Some(u64::from_le_bytes(arr))
    }
}

impl Payload for Bytes {
    fn encode(&self) -> Vec<u8> {
        self.0.clone()
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Bytes(bytes.to_vec()))
    }

    fn approx_size(&self) -> u64 {
        self.0.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        assert_eq!(Bytes::from_u64(7).as_u64(), Some(7));
        assert_eq!(Bytes(vec![b'x']).as_u64(), None);
    }

    #[test]
    fn payload_encode_decode() {
        let b = Bytes(vec![1, 2, 3]);
        assert_eq!(Bytes::decode(&b.encode()), Some(b.clone()));
        assert_eq!(b.approx_size(), 3);
    }

    #[test]
    fn empty_is_empty() {
        assert_eq!(Bytes(Vec::new()).approx_size(), 0);
    }
}
