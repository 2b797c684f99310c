//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Supports both one-shot hashing ([`sha256`]) and incremental hashing
//! ([`Sha256`]), which the secure channel uses to MAC streamed frames
//! without buffering whole messages.

use serde::{Deserialize, Serialize};

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Hex rendering, lowercase, 64 characters.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// The first 8 bytes interpreted as a big-endian integer — handy for
    /// deriving group-element exponents from hashes.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("slice is 8 bytes"))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", &self.to_hex()[..16])
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// FIPS 180-4 round constants: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes.
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

/// Initial hash state: fractional parts of the square roots of the first
/// eight primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far, for the length suffix.
    len: u64,
    /// Partial block not yet compressed.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        let mut data = data.as_ref();
        self.len = self.len.wrapping_add(data.len() as u64);

        // Fill a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Nothing left for the fast path; crucially, do NOT fall
                // through to the remainder stash, which would clobber the
                // partial block we just extended.
                return self;
            }
        }

        // Whole blocks straight from the input.
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            compress(
                &mut self.state,
                block.try_into().expect("chunk is 64 bytes"),
            );
        }

        // Stash the tail.
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
        self
    }

    /// Finishes and returns the digest. The hasher is consumed; clone it
    /// first for running digests.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // written straight into the block. When the 0x80 lands past byte
        // 55 the length no longer fits, so that block is compressed as it
        // stands and the length goes into a second, all-zero one.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One-shot convenience wrapper.
pub fn sha256(data: impl AsRef<[u8]>) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// The longest prefix [`ctr_keystream_xor`] takes: prefix, counter and
/// padding fill one 64-byte block.
pub const CTR_PREFIX_MAX: usize = 47;

/// SHA-CTR: XORs into `data` the keystream `SHA-256(prefix ‖ i)`, 32
/// bytes per block, for the block counter `i` = 0, 1, … as a big-endian
/// `u64`. The padded message of every block is one 64-byte block that
/// differs only in the counter, so it is laid out once and each 32
/// keystream bytes cost one compression from the initial state.
///
/// # Panics
/// Panics if `prefix` is longer than [`CTR_PREFIX_MAX`] bytes.
pub fn ctr_keystream_xor(prefix: &[u8], data: &mut [u8]) {
    let n = prefix.len();
    assert!(n <= CTR_PREFIX_MAX, "a {n}-byte prefix overflows the block");
    let mut block = [0u8; 64];
    block[..n].copy_from_slice(prefix);
    block[n + 8] = 0x80;
    block[56..].copy_from_slice(&(8 * (n as u64 + 8)).to_be_bytes());
    for (i, chunk) in data.chunks_mut(32).enumerate() {
        block[n..n + 8].copy_from_slice(&(i as u64).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &block);
        let mut stream = [0u8; 32];
        for (bytes, word) in stream.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        for (b, k) in chunk.iter_mut().zip(stream) {
            *b ^= k;
        }
    }
}

/// Whether the running CPU has every feature `compress_sha_ni` is compiled
/// for beyond the x86-64 baseline (`sse2`): `sha`, `ssse3` and `sse4.1`.
/// std caches the probe, so asking per block costs a few loads. The
/// dispatcher asks on x86-64, the tests on every target.
#[cfg(any(test, target_arch = "x86_64"))]
fn sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compresses one block into `state`: on the CPU's SHA extensions when it
/// reports them, in portable code everywhere else.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_extensions() {
        // SAFETY: the kernel is safe code whose only requirement is that
        // the CPU supports the features it is compiled for. `sse2` is in
        // the x86-64 baseline, and `sha_extensions()` just confirmed
        // `sha`, `ssse3` and `sse4.1` on the running CPU.
        #[allow(unsafe_code)]
        unsafe {
            compress_sha_ni(state, block)
        };
        return;
    }
    compress_soft(state, block);
}

/// The portable compression function, straight from FIPS 180-4 §6.2.2.
/// It is the only path on CPUs without the SHA extensions, and the
/// reference the hardware kernel is tested against.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk is 4 bytes"));
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
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One compression on the SHA extensions (`sha256rnds2`, `sha256msg1`,
/// `sha256msg2`). The working variables live in two vectors laid out as
/// `sha256rnds2` wants them, ABEF and CDGH (A in the highest lane); each
/// `sha256rnds2` runs two rounds. Words go in through `_mm_set_epi32` and
/// come out through `_mm_extract_epi32`, so nothing here reads or writes
/// memory through a pointer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    // Four words, lowest lane first; the casts reinterpret each word's
    // bits as the `i32` the intrinsics take.
    let lanes = |x: &[u32]| _mm_set_epi32(x[3] as i32, x[2] as i32, x[1] as i32, x[0] as i32);

    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes(bytes.try_into().expect("chunk is 4 bytes"));
    }
    let [a, b, c, d, e, f, g, h] = *state;
    let abef_in = lanes(&[f, e, b, a]);
    let cdgh_in = lanes(&[h, g, d, c]);
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);

    // Rounds 4i..4i+4 over the message words `w`: the low two lanes of
    // w + K first, then the high two.
    let mut rounds4 = |w: __m128i, i: usize| {
        let wk = _mm_add_epi32(w, lanes(&K[4 * i..4 * i + 4]));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    };

    let mut w = [0, 4, 8, 12].map(|i| lanes(&m[i..i + 4]));
    for (i, &wi) in w.iter().enumerate() {
        rounds4(wi, i);
    }
    // The message schedule, four words at a time, each from the sixteen
    // before it (kept as the last four vectors).
    for i in 4..16 {
        let [w0, w1, w2, w3] = w;
        let w4 = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2)),
            w3,
        );
        rounds4(w4, i);
        w = [w1, w2, w3, w4];
    }

    let abef = _mm_add_epi32(abef, abef_in);
    let cdgh = _mm_add_epi32(cdgh, cdgh_in);
    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SHA-CTR the long way: a whole hash per 32-byte block.
    fn keystream_by_hashing(prefix: &[u8], data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(32).enumerate() {
            let mut h = Sha256::new();
            h.update(prefix);
            h.update((i as u64).to_be_bytes());
            for (b, k) in chunk.iter_mut().zip(h.finalize().0) {
                *b ^= k;
            }
        }
    }

    /// The one-block keystream equals hashing each block, for both
    /// prefixes in use (a datagram's 44 bytes and a channel frame's 47)
    /// at lengths around block boundaries and one transfer's size.
    #[test]
    fn ctr_keystream_matches_hashing_each_block() {
        let key: Vec<u8> = (0..32u8).collect();
        let datagram = [b"dgram.stream".as_slice(), &key].concat();
        let channel = [b"stream".as_slice(), &key, &[1], &9u64.to_be_bytes()].concat();
        assert_eq!((datagram.len(), channel.len()), (44, CTR_PREFIX_MAX));
        for prefix in [&datagram, &channel] {
            for len in [0, 1, 31, 32, 33, 64, 4_515] {
                let plain: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let mut fast = plain.clone();
                let mut slow = plain.clone();
                ctr_keystream_xor(prefix, &mut fast);
                keystream_by_hashing(prefix, &mut slow);
                assert_eq!(fast, slow, "prefix {} bytes, length {len}", prefix.len());
            }
        }
    }

    /// NIST / well-known test vectors.
    #[test]
    fn fips_vectors() {
        let cases: [(&[u8], &str); 4] = [
            (
                b"",
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
        ];
        for (input, expected) in cases {
            assert_eq!(sha256(input).to_hex(), expected);
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 256) as u8).collect();
        let oneshot = sha256(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog, twice around";
        let mut h = Sha256::new();
        for b in data {
            h.update([*b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn digest_hex_and_prefix() {
        let d = sha256(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(
            d.prefix_u64(),
            u64::from_be_bytes(d.0[..8].try_into().unwrap())
        );
    }

    #[test]
    fn clone_gives_running_digest() {
        let mut h = Sha256::new();
        h.update(b"hello ");
        let mid = h.clone().finalize();
        h.update(b"world");
        let full = h.finalize();
        assert_eq!(mid, sha256(b"hello "));
        assert_eq!(full, sha256(b"hello world"));
        assert_ne!(mid, full);
    }

    /// Digests of bytes `i % 251` at the lengths around the padding edges,
    /// from Python's hashlib:
    /// `[hashlib.sha256(bytes(i % 251 for i in range(n))).hexdigest() for n in ...]`
    #[test]
    fn padding_edges_match_hashlib() {
        let lengths = [0, 55, 56, 63, 64, 65, 119, 120, 1000];
        let digests = [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d",
        ];
        for (n, expected) in lengths.into_iter().zip(digests) {
            let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            assert_eq!(sha256(&data).to_hex(), expected, "len {n}");
        }
    }

    /// The dispatched compression (the SHA extensions, where the CPU has
    /// them) agrees bit for bit with the portable reference.
    #[test]
    fn compress_matches_portable_reference() {
        if !sha_extensions() {
            // Written to stderr directly, not through `eprintln!`, which the
            // test harness captures: a passing run's log must still show
            // that it compared the portable path with itself.
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "compress_matches_portable_reference: this CPU lacks the SHA \
                 extensions; the hardware kernel was not exercised"
            );
        }
        let mut rng = crate::DetRng::new(0x5a256);
        for _ in 0..10_000 {
            let mut state = [0u32; 8];
            for word in &mut state {
                *word = rng.next_u64() as u32;
            }
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let mut soft = state;
            compress_soft(&mut soft, &block);
            compress(&mut state, &block);
            assert_eq!(state, soft, "block {block:02x?}");
        }
    }

    #[test]
    fn lengths_spanning_padding_edge() {
        // Hash inputs of every length 0..=130 and confirm incremental(1-byte
        // feeds) == oneshot. Exercises the 55/56/63/64 padding edges.
        for n in 0..=130usize {
            let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let mut h = Sha256::new();
            for b in &data {
                h.update([*b]);
            }
            assert_eq!(h.finalize(), sha256(&data), "len {n}");
        }
    }
}
