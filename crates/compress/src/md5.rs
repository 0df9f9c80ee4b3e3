//! MD5 message digest, RFC 1321.
//!
//! MD5 is cryptographically broken, but that is irrelevant here: the paper
//! uses `md5sum` purely as an integrity witness for the packed tarball —
//! compare against a golden value computed at install time, store the
//! archive if they differ. We implement it from the RFC so the workload's
//! verification step is the real computation the hosts performed.

/// K[i] = floor(2^32 × |sin(i + 1)|, as fixed constants per the RFC.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Streaming MD5 state.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Md5 {
    /// Start a new digest.
    pub fn new() -> Self {
        Md5 {
            state: [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476],
            buffer: [0u8; 64],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Feed bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finish and return the 16-byte digest.
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad: one 0x80 byte, zeros up to 56 mod 64, then the bit length.
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_le_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 16];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// The MD5 compression function over one 64-byte block: four rounds of
/// sixteen steps. Each round has one boolean function, one message-word
/// order and four shift amounts; a step is
/// `a = b + ((a + f(b, c, d) + K[i] + m[g(i)]) <<< s)`.
///
/// The steps form one long dependency chain through `b`, so each round's
/// function is written to put as little as possible after `b` is known:
/// `a + K[i] + m[g(i)]` and the parts of `f` that do not read `b` are
/// summed first.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    // Sixteen steps of one round, four at a time with the roles of
    // (a, b, c, d) rotating; `$step` computes one step.
    macro_rules! round {
        ($step:ident, $k:expr, $g:expr, [$s0:expr, $s1:expr, $s2:expr, $s3:expr]) => {
            for j in (0..16).step_by(4) {
                a = $step(a, b, c, d, K[$k + j].wrapping_add(m[$g[j]]), $s0);
                d = $step(d, a, b, c, K[$k + j + 1].wrapping_add(m[$g[j + 1]]), $s1);
                c = $step(c, d, a, b, K[$k + j + 2].wrapping_add(m[$g[j + 2]]), $s2);
                b = $step(b, c, d, a, K[$k + j + 3].wrapping_add(m[$g[j + 3]]), $s3);
            }
        };
    }
    round!(step_f, 0, G1, [7, 12, 17, 22]);
    round!(step_g, 16, G2, [5, 9, 14, 20]);
    round!(step_h, 32, G3, [4, 11, 16, 23]);
    round!(step_i, 48, G4, [6, 10, 15, 21]);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Message-word order of each round: `i`, `5i + 1`, `3i + 5` and `7i`
/// (mod 16) for step `i` of the 64.
const G1: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
const G2: [usize; 16] = [1, 6, 11, 0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12];
const G3: [usize; 16] = [5, 8, 11, 14, 1, 4, 7, 10, 13, 0, 3, 6, 9, 12, 15, 2];
const G4: [usize; 16] = [0, 7, 14, 5, 12, 3, 10, 1, 8, 15, 6, 13, 4, 11, 2, 9];

/// Round 1, `F(b, c, d) = (b ∧ c) ∨ (¬b ∧ d)`, as `d ⊕ (b ∧ (c ⊕ d))`.
#[inline(always)]
fn step_f(a: u32, b: u32, c: u32, d: u32, km: u32, s: u32) -> u32 {
    let f = d ^ (b & (c ^ d));
    finish(a.wrapping_add(km), f, b, s)
}

/// Round 2, `G(b, c, d) = (b ∧ d) ∨ (c ∧ ¬d)`: the two terms share no
/// bits, so they are added, the `c` term before `b` is known.
#[inline(always)]
fn step_g(a: u32, b: u32, c: u32, d: u32, km: u32, s: u32) -> u32 {
    finish(a.wrapping_add(km).wrapping_add(c & !d), b & d, b, s)
}

/// Round 3, `H(b, c, d) = b ⊕ c ⊕ d`.
#[inline(always)]
fn step_h(a: u32, b: u32, c: u32, d: u32, km: u32, s: u32) -> u32 {
    finish(a.wrapping_add(km), b ^ (c ^ d), b, s)
}

/// Round 4, `I(b, c, d) = c ⊕ (b ∨ ¬d)`.
#[inline(always)]
fn step_i(a: u32, b: u32, c: u32, d: u32, km: u32, s: u32) -> u32 {
    finish(a.wrapping_add(km), c ^ (b | !d), b, s)
}

/// `b + ((early + f) <<< s)`, where `early` is everything known before `b`.
#[inline(always)]
fn finish(early: u32, f: u32, b: u32, s: u32) -> u32 {
    early.wrapping_add(f).rotate_left(s).wrapping_add(b)
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot digest.
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// One-shot digest as a lowercase hex string.
pub fn md5_hex(data: &[u8]) -> String {
    to_hex(&md5(data))
}

fn to_hex(digest: &[u8; 16]) -> String {
    let mut s = String::with_capacity(32);
    for b in digest {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("writing to String cannot fail");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc_1321_test_suite() {
        // The complete test suite from RFC 1321 appendix A.5.
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(
                md5_hex(input),
                want,
                "input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0u32..100_000).map(|i| (i * 31 % 251) as u8).collect();
        for chunk_size in [1usize, 7, 63, 64, 65, 1000] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), md5(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn length_boundary_cases() {
        // Padding boundaries: 55, 56, 57, 63, 64, 65 bytes.
        for n in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![b'x'; n];
            let digest = md5(&data);
            // Compare against a second, chunked computation.
            let mut h = Md5::new();
            h.update(&data[..n / 2]);
            h.update(&data[n / 2..]);
            assert_eq!(h.finalize(), digest, "length {n}");
        }
    }

    #[test]
    fn padding_boundaries_match_reference_digests() {
        // 55 bytes pad into one block, 56 force a second block, 64 fill
        // the first exactly; digests from an independent implementation.
        let cases = [
            (55usize, "ef1772b6dff9a122358552954ad0df65"),
            (56, "3b0c8ac703f828b04c6c197006d17218"),
            (57, "652b906d60af96844ebd21b674f35e93"),
            (63, "b06521f39153d618550606be297466d5"),
            (64, "014842d480b571495a4a0363793f7367"),
            (65, "c743a45e0d2e6a95cb859adae0248435"),
            (119, "8a7bd0732ed6a28ce75f6dabc90e1613"),
            (120, "5f61c0ccad4cac44c75ff505e1f1e537"),
            (128, "e510683b3f5ffe4093d021808bc6ff70"),
        ];
        for (n, want) in cases {
            assert_eq!(md5_hex(&vec![b'a'; n]), want, "{n} × 'a'");
        }
    }

    #[test]
    fn multi_block_messages_match_reference_digests() {
        let pattern: Vec<u8> = (0u32..1000).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(md5_hex(&pattern), "d676565de2976219305a8e7e6698b024");
        // The classic one-million-'a' vector, fed in uneven pieces.
        let mut h = Md5::new();
        for piece in vec![b'a'; 1_000_000].chunks(999) {
            h.update(piece);
        }
        assert_eq!(to_hex(&h.finalize()), "7707d6ae4e027c70eea2a935c2296f21");
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let data = b"the tarball is overwritten in the next cycle".repeat(20);
        let base = md5(&data);
        let mut corrupted = data.clone();
        corrupted[data.len() / 2] ^= 0x10;
        assert_ne!(md5(&corrupted), base);
    }

    #[test]
    fn hex_format() {
        assert_eq!(md5_hex(b"").len(), 32);
        assert!(md5_hex(b"abc").chars().all(|c| c.is_ascii_hexdigit()));
    }
}
