//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Libspector includes a SHA-256 checksum of the apk in every socket
//! report so the collection server can associate reports with the app
//! under test even when several emulators share one report sink. No
//! hashing crate is in the approved dependency set, so the digest is
//! implemented here and validated against the NIST test vectors.
//!
//! Whole 64-byte blocks go through one of two compression kernels,
//! chosen when a hasher is created by CPU feature detection alone: on
//! x86 CPUs that report the SHA extensions plus SSSE3 and SSE4.1
//! (`is_x86_feature_detected!`), the `sha256rnds2`/`sha256msg*`
//! instructions; everywhere else, the portable rounds. Both produce the
//! same digest; the tests run the NIST vectors through each directly.

use std::fmt;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use spector_dex::sha256::Sha256;
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     digest.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
    compress: Compress,
}

/// A compression kernel: absorbs `blocks` (a whole number of 64-byte
/// blocks) into `state`.
type Compress = fn(&mut [u32; 8], &[u8]);

/// A finalized 32-byte SHA-256 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in self.0 {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

impl Digest {
    /// Parses a 64-character lowercase/uppercase hex string.
    ///
    /// Returns `None` for malformed input.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let s = std::str::from_utf8(chunk).ok()?;
            out[i] = u8::from_str_radix(s, 16).ok()?;
        }
        Some(Digest(out))
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher on the fastest kernel this CPU runs.
    pub fn new() -> Self {
        Sha256::with_kernel(sha_ni_kernel().unwrap_or(compress_portable))
    }

    fn with_kernel(compress: Compress) -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            total_len: 0,
            compress,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            (self.compress)(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            (self.compress)(&mut self.state, &data[..whole]);
        }
        let tail = &data[whole..];
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the hash and returns the digest. Consumes the hasher.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // filling one block or, when fewer than 9 bytes are free, two.
        let mut last = [0u8; 128];
        last[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        last[self.buffered] = 0x80;
        let len = if self.buffered < 56 { 64 } else { 128 };
        last[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        (self.compress)(&mut self.state, &last[..len]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The portable kernel: the FIPS 180-4 rounds in plain integer code,
/// the fallback where [`sha_ni_kernel`] finds no SHA extensions.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The SHA-extensions kernel, when this CPU has the features it needs.
#[cfg(target_arch = "x86_64")]
fn sha_ni_kernel() -> Option<Compress> {
    sha_ni_detected().then_some(compress_sha_ni as Compress)
}

/// No SHA-extensions kernel off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn sha_ni_kernel() -> Option<Compress> {
    None
}

/// Whether this CPU has the SHA, SSSE3 and SSE4.1 features (SSE2 is
/// part of x86-64). The standard library caches the detection, so a
/// call costs a few loads.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
}

#[cfg(target_arch = "x86_64")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(sha_ni_detected(), "the CPU lacks the SHA extensions");
    // SAFETY: the assertion above detected every feature
    // `x86::compress` is compiled for.
    unsafe { x86::compress(state, blocks) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Block compression with the x86 SHA extensions. The rounds work
    //! on the state as the two halves `ABEF` and `CDGH` that
    //! `sha256rnds2` takes; each step adds four message-schedule words
    //! to four round constants and runs four rounds, two per
    //! instruction.

    use std::arch::x86_64::*;

    use super::K;

    /// Computes four new message-schedule words from the previous
    /// sixteen (`w0` oldest).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support the SHA, SSE2, SSSE3 and SSE4.1 features.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order of each 32-bit word reversed: the message is
        // big-endian.
        let be_words = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0b_u64 as i64,
            0x0405_0607_0001_0203_u64 as i64,
        );
        let state_ptr = state.as_mut_ptr().cast::<__m128i>();
        let dcba = _mm_loadu_si128(state_ptr);
        let hgfe = _mm_loadu_si128(state_ptr.add(1));
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [_mm_setzero_si128(); 4];
            for (i, lane) in w.iter_mut().enumerate() {
                let raw = _mm_loadu_si128(block.as_ptr().cast::<__m128i>().add(i));
                *lane = _mm_shuffle_epi8(raw, be_words);
            }
            for step in 0..16 {
                if step >= 4 {
                    w[step % 4] = schedule(
                        w[step % 4],
                        w[(step + 1) % 4],
                        w[(step + 2) % 4],
                        w[(step + 3) % 4],
                    );
                }
                let wk = _mm_add_epi32(
                    w[step % 4],
                    _mm_loadu_si128(K.as_ptr().add(step * 4).cast::<__m128i>()),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(data: &[u8]) -> String {
        Sha256::digest(data).to_string()
    }

    /// The SHA-extensions kernel, or `None` after saying why it is
    /// skipped on this CPU.
    fn sha_ni_or_skip() -> Option<Compress> {
        let kernel = sha_ni_kernel();
        if kernel.is_none() {
            eprintln!("skipped: this CPU lacks the SHA extensions, SSSE3 or SSE4.1");
        }
        kernel
    }

    fn digest_with(kernel: Compress, chunks: &[&[u8]]) -> Digest {
        let mut h = Sha256::with_kernel(kernel);
        for chunk in chunks {
            h.update(chunk);
        }
        h.finalize()
    }

    /// FIPS 180-4 / NIST CAVP short-message vectors through `kernel`.
    fn nist_vectors_on(kernel: Compress) {
        for (message, expected) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ] {
            assert_eq!(digest_with(kernel, &[message]).to_string(), expected);
        }
    }

    /// One million `a`s, fed 1,000 at a time, through `kernel`.
    fn million_a_on(kernel: Compress) {
        let chunk = [b'a'; 1000];
        let chunks = [&chunk[..]; 1000];
        assert_eq!(
            digest_with(kernel, &chunks).to_string(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn nist_vectors() {
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        nist_vectors_on(compress_portable);
    }

    #[test]
    fn nist_vectors_sha_extensions() {
        if let Some(kernel) = sha_ni_or_skip() {
            nist_vectors_on(kernel);
        }
    }

    #[test]
    fn million_a() {
        million_a_on(compress_portable);
    }

    #[test]
    fn million_a_sha_extensions() {
        if let Some(kernel) = sha_ni_or_skip() {
            million_a_on(kernel);
        }
    }

    #[test]
    fn padding_edge_lengths_agree_across_kernels() {
        // Lengths around the one-/two-block padding split (55/56 bytes
        // left in the last block) and block multiples.
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 % 256) as u8).collect();
        for len in [
            0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 191, 192, 300,
        ] {
            let portable = digest_with(compress_portable, &[&data[..len]]);
            assert_eq!(Sha256::digest(&data[..len]), portable, "length {len}");
            if let Some(kernel) = sha_ni_kernel() {
                assert_eq!(
                    digest_with(kernel, &[&data[..len]]),
                    portable,
                    "length {len}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn kernels_and_split_points_agree(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            splits in proptest::collection::vec(0usize..700, 0..4),
        ) {
            let mut cuts: Vec<usize> = splits.into_iter().map(|at| at.min(data.len())).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                chunks.push(&data[from..cut]);
                from = cut;
            }
            let one_shot = Sha256::digest(&data);
            prop_assert_eq!(digest_with(compress_portable, &chunks), one_shot);
            if let Some(kernel) = sha_ni_kernel() {
                prop_assert_eq!(digest_with(kernel, &chunks), one_shot);
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        let one_shot = Sha256::digest(&data);
        // Feed in awkward chunk sizes to cross block boundaries.
        for chunk_size in [1, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = Sha256::digest(b"roundtrip");
        let parsed = Digest::from_hex(&d.to_string()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn from_hex_rejects_malformed() {
        assert!(Digest::from_hex("abc").is_none());
        assert!(Digest::from_hex(&"g".repeat(64)).is_none());
        // A valid-length multibyte string must not panic.
        assert!(Digest::from_hex(&"é".repeat(32)).is_none());
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"app-v1"), Sha256::digest(b"app-v2"));
    }
}
