//! Fixed-size record serialization for slot payloads.

/// A value that serializes to a fixed number of bytes, so the records of a
/// slot array map onto a file as `rank * SIZE` with no per-record framing.
/// The region is rewritten whole and zero padded on every commit, which is
/// what keeps deleted records unrecoverable from the raw bytes.
///
/// `SIZE` must be positive and at most [`Record::MAX_SIZE`] (a record that
/// straddles two staging spans is staged through a fixed stack buffer).
pub trait Record: Sized {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Upper bound on [`Self::SIZE`] accepted by the store.
    const MAX_SIZE: usize = 64;

    /// Writes exactly [`Self::SIZE`] bytes into `out` (`out.len() == SIZE`).
    fn encode(&self, out: &mut [u8]);

    /// Reads a value back from exactly [`Self::SIZE`] bytes.
    fn decode(buf: &[u8]) -> Self;
}

impl Record for u64 {
    const SIZE: usize = 8;

    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    #[expect(
        clippy::expect_used,
        reason = "Record::decode contract: callers always slice exactly SIZE bytes"
    )]
    fn decode(buf: &[u8]) -> Self {
        u64::from_le_bytes(buf.try_into().expect("u64 record is 8 bytes"))
    }
}

impl Record for (u64, u64) {
    const SIZE: usize = 16;

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        out[8..].copy_from_slice(&self.1.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        (u64::decode(&buf[..8]), u64::decode(&buf[8..16]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let mut buf = [0u8; 8];
        0xDEAD_BEEF_0123_4567u64.encode(&mut buf);
        assert_eq!(u64::decode(&buf), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn pair_roundtrip() {
        let mut buf = [0u8; 16];
        (17u64, u64::MAX).encode(&mut buf);
        assert_eq!(<(u64, u64)>::decode(&buf), (17, u64::MAX));
    }
}
