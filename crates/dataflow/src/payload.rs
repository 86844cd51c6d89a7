//! The data interchange trait between tasks.
//!
//! The runtime is generic over one payload type per workflow (typically an
//! enum covering every kind of value the workflow's tasks exchange). Tasks
//! hand values to each other in memory; the trait only adds the
//! encode/decode pair the checkpoint log stores completed outputs with.

/// Values exchanged between tasks.
pub trait Payload: Send + Sync + 'static {
    /// Serializes the value for the checkpoint log.
    fn encode(&self) -> Vec<u8>;

    /// Inverse of [`Payload::encode`]; `None` on malformed input.
    fn decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
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
        assert_eq!(Bytes::decode(&b.encode()), Some(b));
    }
}
