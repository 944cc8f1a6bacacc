//! Object identity: checksums, chunk geometry, and deterministic bodies.
//!
//! Every stored object is described by an [`ObjectMeta`]: its content id,
//! byte size, whole-object FNV-1a checksum, and the chunk size it is
//! shipped in. Chunk geometry is derived, never stored per chunk — chunk
//! `i` of an object is always `body[i * chunk_size ..][.. chunk_len(i)]`,
//! so sender and receiver agree on framing from the meta alone.

use cpms_model::ContentId;
use serde::{Deserialize, Serialize};

/// Default shipping chunk size in bytes: 64 KiB, where the measured
/// `store.ship_mib_s_*` curve flattens (DESIGN §12). Recorded per object
/// in its [`ObjectMeta`], so stores written under another default keep
/// the geometry they were written with.
pub const DEFAULT_CHUNK_SIZE: u32 = 64 * 1024;

/// The FNV-1a 64 state before any byte: `fnv64(b"")`.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over `bytes`, applied per chunk and per whole object.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// One pass over `bytes` for two sums: `(fnv64(bytes), running')`, where
/// `running'` continues the FNV-1a state `running` over the same bytes —
/// so a whole-object sum is folded chunk by chunk
/// (`fnv64(a ++ b) == fnv64_fold(fnv64(a), b).1`) by the pass that checks
/// each chunk. The two chains are independent, and one chain's xor → mul
/// dependency leaves the multiplier idle three cycles in four: both run
/// in the time of one.
#[must_use]
pub(crate) fn fnv64_fold(running: u64, bytes: &[u8]) -> (u64, u64) {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut own = FNV_BASIS;
    let mut running = running;
    for &b in bytes {
        own = (own ^ u64::from(b)).wrapping_mul(PRIME);
        running = (running ^ u64::from(b)).wrapping_mul(PRIME);
    }
    (own, running)
}

/// Lower-hex encodes `bytes`. Names on-disk object files (the hex of the
/// URL path) and spells the legacy form of chunk messages that
/// [`apply`](crate::apply) still answers; chunk bytes themselves cross
/// the wire raw, as payload tails.
#[must_use]
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble < 16"));
        out.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble < 16"));
    }
    out
}

/// Decodes a lower/upper-hex string back into bytes (a legacy sender's
/// chunk `data`).
///
/// # Errors
///
/// A description of the malformation (odd length, non-hex digit).
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex string ({} chars)", s.len()));
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("non-hex digit {:?}", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("non-hex digit {:?}", pair[1] as char))?;
        out.push(u8::try_from(hi * 16 + lo).expect("two nibbles fit a byte"));
    }
    Ok(out)
}

/// The durable description of one stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectMeta {
    /// Which content object this is a copy of.
    pub content: ContentId,
    /// Whole-object size in bytes.
    pub size: u64,
    /// FNV-1a 64 over the whole body.
    pub checksum: u64,
    /// Shipping chunk size in bytes (> 0).
    pub chunk_size: u32,
    /// Monotone version, bumped on each content update.
    pub version: u64,
}

impl ObjectMeta {
    /// Describes `body` with the given identity and chunk size.
    ///
    /// # Panics
    ///
    /// If `chunk_size` is zero.
    #[must_use]
    pub fn for_body(content: ContentId, body: &[u8], chunk_size: u32, version: u64) -> Self {
        Self::walk(content, body, chunk_size, version, |_sum| {})
    }

    /// [`ObjectMeta::for_body`] plus the `fnv64` of every chunk, in chunk
    /// order, from the same single walk over `body`: everything a sender
    /// announces about an object, however many replicas it goes to.
    ///
    /// # Panics
    ///
    /// If `chunk_size` is zero.
    #[must_use]
    pub fn describe(
        content: ContentId,
        body: &[u8],
        chunk_size: u32,
        version: u64,
    ) -> (Self, Vec<u64>) {
        let mut sums = Vec::new();
        let meta = Self::walk(content, body, chunk_size, version, |sum| sums.push(sum));
        (meta, sums)
    }

    /// The one loop that hashes a body: hands each chunk's sum to
    /// `chunk_sum` and folds the whole-object checksum beside it.
    fn walk(
        content: ContentId,
        body: &[u8],
        chunk_size: u32,
        version: u64,
        mut chunk_sum: impl FnMut(u64),
    ) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut checksum = FNV_BASIS;
        for chunk in body.chunks(chunk_size as usize) {
            let (own, running) = fnv64_fold(checksum, chunk);
            chunk_sum(own);
            checksum = running;
        }
        ObjectMeta {
            content,
            size: body.len() as u64,
            checksum,
            chunk_size,
            version,
        }
    }

    /// Number of chunks the object ships as (zero-byte objects ship as
    /// zero chunks).
    #[must_use]
    pub fn chunk_count(&self) -> u32 {
        u32::try_from(self.size.div_ceil(u64::from(self.chunk_size.max(1)))).unwrap_or(u32::MAX)
    }

    /// Length of chunk `index`, or `None` if out of range. Every chunk is
    /// full-size except possibly the last.
    #[must_use]
    pub fn chunk_len(&self, index: u32) -> Option<u32> {
        if index >= self.chunk_count() {
            return None;
        }
        let start = u64::from(index) * u64::from(self.chunk_size);
        let len = (self.size - start).min(u64::from(self.chunk_size));
        Some(u32::try_from(len).expect("chunk length fits chunk_size"))
    }

    /// The byte range of chunk `index` within the body.
    #[must_use]
    pub fn chunk_range(&self, index: u32) -> Option<std::ops::Range<usize>> {
        let len = self.chunk_len(index)?;
        let start = usize::try_from(u64::from(index) * u64::from(self.chunk_size)).ok()?;
        Some(start..start + len as usize)
    }
}

/// A deterministic object body for `content` of the given size: the byte
/// stream only depends on (id, size), so a controller and a broker that
/// never exchanged the bytes can still agree on what "content 7, 4 KiB"
/// looks like. This is how workload-spec objects (which declare sizes but
/// carry no payload) become real, checksummable bytes.
#[must_use]
pub fn synthetic_body(content: ContentId, size: u64) -> Vec<u8> {
    let size = usize::try_from(size).expect("object sizes fit in memory");
    let mut out = Vec::with_capacity(size);
    // splitmix64 keyed by the content id; 8 bytes per draw.
    let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ (u64::from(content.0) << 17);
    while out.len() < size {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        for byte in z.to_le_bytes() {
            if out.len() == size {
                break;
            }
            out.push(byte);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_distinguishes_and_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        // Manifests and URL tables written by earlier builds record this
        // function's values: they may never move.
        assert_eq!(
            fnv64(&synthetic_body(ContentId(7), 1000)),
            0x7639_8490_598c_aceb
        );
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
        assert_eq!(fnv64(b"abc"), fnv64(b"abc"));
    }

    #[test]
    fn one_walk_describes_every_chunk_and_the_whole_body() {
        const CHUNK: usize = 512;
        for size in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let body = synthetic_body(ContentId(11), size as u64);
            let (meta, sums) = ObjectMeta::describe(ContentId(11), &body, CHUNK as u32, 4);
            assert_eq!(meta.checksum, fnv64(&body), "{size} B");
            assert_eq!(
                meta,
                ObjectMeta::for_body(ContentId(11), &body, CHUNK as u32, 4)
            );
            assert_eq!(sums.len(), meta.chunk_count() as usize, "{size} B");
            for (i, sum) in sums.iter().enumerate() {
                let chunk = &body[meta.chunk_range(i as u32).unwrap()];
                assert_eq!(*sum, fnv64(chunk), "{size} B, chunk {i}");
            }
        }
    }

    #[test]
    fn hex_roundtrip() {
        for body in [&b""[..], &b"\x00\xff\x10"[..], &b"hello world"[..]] {
            assert_eq!(hex_decode(&hex_encode(body)).unwrap(), body);
        }
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex");
        assert_eq!(
            hex_decode("DEADbeef").unwrap(),
            vec![0xDE, 0xAD, 0xBE, 0xEF]
        );
    }

    #[test]
    fn chunk_geometry() {
        let meta = ObjectMeta::for_body(ContentId(1), &[7u8; 10], 4, 0);
        assert_eq!(meta.chunk_count(), 3);
        assert_eq!(meta.chunk_len(0), Some(4));
        assert_eq!(meta.chunk_len(2), Some(2));
        assert_eq!(meta.chunk_len(3), None);
        assert_eq!(meta.chunk_range(2), Some(8..10));

        let empty = ObjectMeta::for_body(ContentId(1), &[], 4, 0);
        assert_eq!(empty.chunk_count(), 0);

        let exact = ObjectMeta::for_body(ContentId(1), &[0u8; 8], 4, 0);
        assert_eq!(exact.chunk_count(), 2);
        assert_eq!(exact.chunk_len(1), Some(4));
    }

    #[test]
    fn synthetic_bodies_are_deterministic_and_distinct() {
        let a = synthetic_body(ContentId(1), 1000);
        let b = synthetic_body(ContentId(1), 1000);
        let c = synthetic_body(ContentId(2), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert_eq!(synthetic_body(ContentId(1), 0).len(), 0);
        // Prefix property: a shorter body of the same id is a prefix, so
        // declared-size changes do not shuffle all bytes.
        let short = synthetic_body(ContentId(1), 100);
        assert_eq!(&a[..100], &short[..]);
    }
}
