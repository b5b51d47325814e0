//! Checksums used across the workspace.
//!
//! The paper's ixt3 prototype uses SHA-1 over block contents (§6.1); journal
//! self-checks in several of our file-system models use CRC32. Both are
//! implemented here, test-vectored against the published standards, so the
//! workspace carries no external crypto dependency.
//!
//! * [`sha1`] hashes whole 64-byte chunks in place and pads only the tail,
//!   in a stack buffer. Its compression function keeps a rolling 16-word
//!   message schedule and writes the four 20-round groups out in full.
//! * [`crc32_update`] is table-driven slicing-by-8: eight 256-entry tables,
//!   built at compile time, fold eight bytes per step, and a byte-wise loop
//!   takes the remainder.
//!
//! Both are portable scalar Rust. There is no hardware path (SHA-NI, or
//! carry-less multiply for CRC): the intrinsics need `unsafe`, and every
//! crate here is `#![forbid(unsafe_code)]`. Table 6 charges hashing as a
//! fixed simulated cost (`iron_ext3::iron::SHA1_BLOCK_COST_NS`), so these
//! kernels' speed changes host time only, never a simulated result. The
//! original bit-at-a-time CRC-32 and copy-then-pad SHA-1 live on in the
//! tests as the references the fast kernels are compared against.

/// A SHA-1 digest (20 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Sha1Digest(pub [u8; 20]);

impl Sha1Digest {
    /// Render as lowercase hex.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A truncated 64-bit view of the digest, used where a compact on-disk
    /// checksum field is wanted (first 8 bytes, big-endian, as SHA-1 output
    /// order).
    pub fn truncated64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("20 >= 8"))
    }
}

/// Compute the SHA-1 digest of `data` (FIPS 180-1).
pub fn sha1(data: &[u8]) -> Sha1Digest {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

    let mut chunks = data.chunks_exact(64);
    for chunk in &mut chunks {
        sha1_compress(&mut h, chunk.try_into().expect("64-byte chunk"));
    }

    // Message padding, applied to the tail only: 0x80, zeros, then the
    // 64-bit big-endian bit length. A tail of 56 bytes or more spills the
    // length into a second chunk.
    let tail = chunks.remainder();
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let padded_len = if tail.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    pad[padded_len - 8..padded_len].copy_from_slice(&bit_len.to_be_bytes());
    for chunk in pad[..padded_len].chunks_exact(64) {
        sha1_compress(&mut h, chunk.try_into().expect("64-byte chunk"));
    }

    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Sha1Digest(out)
}

/// The SHA-1 compression function over one 64-byte chunk.
///
/// The message schedule is a rolling 16-word window (`w[i & 15]` holds
/// word `i`). Each of the four 20-round groups is written out with its own
/// boolean function and constant, five rounds at a time. Each round
/// rotates which variable plays which role rather than shifting the values
/// along, and no round dispatches on its index.
fn sha1_compress(h: &mut [u32; 5], chunk: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, word) in w.iter_mut().zip(chunk.chunks_exact(4)) {
        *wi = u32::from_be_bytes(word.try_into().expect("4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *h;

    // One round with roles (a, b, c, d, e): the new `a` lands in `e`'s
    // variable and `b` is rotated in place.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $i:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f($b, $c, $d))
                .wrapping_add($k)
                .wrapping_add(sha1_schedule(&mut w, $i));
            $b = $b.rotate_left(30);
        };
    }
    // Five rounds starting at word `i`; after five the roles line up again.
    macro_rules! five_rounds {
        ($f:ident, $k:expr, $i:expr) => {
            round!(a, b, c, d, e, $f, $k, $i);
            round!(e, a, b, c, d, $f, $k, $i + 1);
            round!(d, e, a, b, c, $f, $k, $i + 2);
            round!(c, d, e, a, b, $f, $k, $i + 3);
            round!(b, c, d, e, a, $f, $k, $i + 4);
        };
    }
    five_rounds!(sha1_ch, 0x5A827999, 0);
    five_rounds!(sha1_ch, 0x5A827999, 5);
    five_rounds!(sha1_ch, 0x5A827999, 10);
    five_rounds!(sha1_ch, 0x5A827999, 15);
    five_rounds!(sha1_parity, 0x6ED9EBA1, 20);
    five_rounds!(sha1_parity, 0x6ED9EBA1, 25);
    five_rounds!(sha1_parity, 0x6ED9EBA1, 30);
    five_rounds!(sha1_parity, 0x6ED9EBA1, 35);
    five_rounds!(sha1_maj, 0x8F1BBCDC, 40);
    five_rounds!(sha1_maj, 0x8F1BBCDC, 45);
    five_rounds!(sha1_maj, 0x8F1BBCDC, 50);
    five_rounds!(sha1_maj, 0x8F1BBCDC, 55);
    five_rounds!(sha1_parity, 0xCA62C1D6, 60);
    five_rounds!(sha1_parity, 0xCA62C1D6, 65);
    five_rounds!(sha1_parity, 0xCA62C1D6, 70);
    five_rounds!(sha1_parity, 0xCA62C1D6, 75);

    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// Schedule word `i`: the loaded word below 16, else the recurrence,
/// stored back over the word it retires.
#[inline(always)]
fn sha1_schedule(w: &mut [u32; 16], i: usize) -> u32 {
    if i < 16 {
        return w[i];
    }
    let x = (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
    w[i & 15] = x;
    x
}

#[inline(always)]
fn sha1_ch(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (!b & d)
}

#[inline(always)]
fn sha1_parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn sha1_maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (b & d) | (c & d)
}

/// Compute the CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of
/// `data`, as used by zlib/gzip.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Slicing-by-8 lookup tables: `CRC_TABLES[0][n]` is the CRC of byte `n`,
/// and `CRC_TABLES[k][n]` advances that by `k` further zero bytes, so one
/// lookup per byte folds eight bytes in a single step.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = t[k - 1][n];
            t[k][n] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    t
}

/// Incremental CRC-32 update. `state` starts as `0xFFFF_FFFF`; the final
/// checksum is `state ^ 0xFFFF_FFFF`.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][hi as u8 as usize]
            ^ t[2][(hi >> 8) as u8 as usize]
            ^ t[1][(hi >> 16) as u8 as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        state = (state >> 8) ^ t[0][(state as u8 ^ byte) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_testkit::{check, gen, Config, Gen};

    /// The original copy-then-pad SHA-1, kept as the reference the fast
    /// kernel is compared against.
    fn reference_sha1(data: &[u8]) -> Sha1Digest {
        let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());

        let mut w = [0u32; 80];
        for chunk in msg.chunks_exact(64) {
            for (i, word) in chunk.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
            }
            for i in 16..80 {
                w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            }
            let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
            for (i, &wi) in w.iter().enumerate() {
                let (f, k) = match i {
                    0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                    20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                    40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                    _ => (b ^ c ^ d, 0xCA62C1D6),
                };
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add(k)
                    .wrapping_add(wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
        }

        let mut out = [0u8; 20];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Sha1Digest(out)
    }

    /// The original bit-at-a-time CRC-32 update, kept as the reference the
    /// table-driven kernel is compared against.
    fn reference_crc32_update(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        state
    }

    /// Random bytes of length 0..=9000; half the lengths sit on a SHA-1
    /// padding edge (one chunk, the length spill, two chunks) or a
    /// slicing-by-8 remainder boundary.
    fn kernel_input() -> impl Gen<Value = Vec<u8>> {
        const EDGES: [usize; 14] = [0, 1, 7, 8, 9, 55, 56, 63, 64, 65, 119, 120, 128, 4096];
        gen::from_fn(|rng| {
            let len = if rng.bool() {
                *rng.choose(&EDGES)
            } else {
                rng.range(0, 9001)
            };
            let mut data = vec![0u8; len];
            rng.fill(&mut data);
            data
        })
    }

    #[test]
    fn kernels_match_the_reference_implementations() {
        check(
            "kernels_match_the_reference_implementations",
            Config::cases(256),
            &kernel_input(),
            |data| {
                assert_eq!(sha1(data), reference_sha1(data), "sha1, len {}", data.len());
                assert_eq!(
                    crc32_update(0xFFFF_FFFF, data),
                    reference_crc32_update(0xFFFF_FFFF, data),
                    "crc32, len {}",
                    data.len()
                );
            },
        );
    }

    #[test]
    fn crc32_update_is_independent_of_chunking() {
        let input = gen::from_fn(|rng| {
            let mut data = vec![0u8; rng.range(0, 9001)];
            rng.fill(&mut data);
            let cuts: Vec<usize> = (0..rng.range(0, 12)).map(|_| rng.range(0, 40)).collect();
            (data, cuts)
        });
        check(
            "crc32_update_is_independent_of_chunking",
            Config::cases(256),
            &input,
            |(data, cuts)| {
                let mut state = 0xFFFF_FFFF;
                let mut rest = &data[..];
                for &cut in cuts {
                    let (head, tail) = rest.split_at(cut.min(rest.len()));
                    state = crc32_update(state, head);
                    rest = tail;
                }
                state = crc32_update(state, rest);
                assert_eq!(state, reference_crc32_update(0xFFFF_FFFF, data));
            },
        );
    }

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn sha1_empty() {
        assert_eq!(
            sha1(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn sha1_abc() {
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn sha1_two_block_message() {
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn sha1_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1(&data).to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn sha1_truncated64_matches_prefix() {
        let d = sha1(b"abc");
        assert_eq!(d.truncated64(), 0xa9993e364706816a);
    }

    // Canonical CRC-32 check value.
    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = crc32(data);
        let mut st = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            st = crc32_update(st, chunk);
        }
        assert_eq!(st ^ 0xFFFF_FFFF, oneshot);
    }

    #[test]
    fn checksums_distinguish_single_bit_flips() {
        let base = vec![0xA5u8; 4096];
        let base_sha = sha1(&base);
        let base_crc = crc32(&base);
        for pos in [0usize, 1, 2048, 4095] {
            let mut flipped = base.clone();
            flipped[pos] ^= 0x01;
            assert_ne!(sha1(&flipped), base_sha, "sha1 missed flip at {pos}");
            assert_ne!(crc32(&flipped), base_crc, "crc32 missed flip at {pos}");
        }
    }
}
