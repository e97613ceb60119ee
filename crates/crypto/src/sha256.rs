//! SHA-256 (FIPS-180-4), used as the hash primitive of the integrity
//! verification engine.
//!
//! Secure-accelerator papers describe the MAC unit generically as a keyed
//! "Hash function"; we instantiate it with HMAC-SHA-256 truncated to the
//! 64-bit MACs the evaluation assumes (8 B MAC per protected block).

/// SHA-256 digest size in bytes.
pub const DIGEST_BYTES: usize = 32;

/// SHA-256 block size in bytes.
pub const BLOCK_BYTES: usize = 64;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_BYTES];

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
/// use seda_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(d[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_BYTES],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; BLOCK_BYTES],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (BLOCK_BYTES - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == BLOCK_BYTES {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= BLOCK_BYTES {
            let mut block = [0u8; BLOCK_BYTES];
            block.copy_from_slice(&input[..BLOCK_BYTES]);
            self.compress(&block);
            input = &input[BLOCK_BYTES..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // `update` leaves fewer than BLOCK_BYTES bytes buffered, so the
        // 0x80 terminator always fits; a tail of 56 bytes or more leaves
        // no room for the length, which then goes in one more block.
        let mut block = [0u8; BLOCK_BYTES];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] = 0x80;
        if self.buffered >= BLOCK_BYTES - 8 {
            self.compress(&block);
            block = [0u8; BLOCK_BYTES];
        }
        block[BLOCK_BYTES - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; DIGEST_BYTES];
        for (i, w) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    fn compress(&mut self, block: &[u8; BLOCK_BYTES]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
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
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One SHA-256 word in each of four lanes.
type Lanes = [u32; 4];

#[inline(always)]
fn add(a: Lanes, b: Lanes) -> Lanes {
    [
        a[0].wrapping_add(b[0]),
        a[1].wrapping_add(b[1]),
        a[2].wrapping_add(b[2]),
        a[3].wrapping_add(b[3]),
    ]
}

#[inline(always)]
fn xor(a: Lanes, b: Lanes) -> Lanes {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

#[inline(always)]
fn and(a: Lanes, b: Lanes) -> Lanes {
    [a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]]
}

#[inline(always)]
fn and_not(a: Lanes, b: Lanes) -> Lanes {
    [!a[0] & b[0], !a[1] & b[1], !a[2] & b[2], !a[3] & b[3]]
}

#[inline(always)]
fn shr<const N: u32>(a: Lanes) -> Lanes {
    [a[0] >> N, a[1] >> N, a[2] >> N, a[3] >> N]
}

#[inline(always)]
fn shl<const N: u32>(a: Lanes) -> Lanes {
    [a[0] << N, a[1] << N, a[2] << N, a[3] << N]
}

// The four sigma functions, each rotation split into its two shifts.
// Every xor pairs a right shift with a left shift whose amounts do not
// sum to 32: LLVM then neither folds a pair back into a scalar rotate
// nor pairs two shifts of one lane, and the rounds and the message
// schedule compile to SSE2 vector code at the baseline x86-64 target.

#[inline(always)]
fn big_sigma0(a: Lanes) -> Lanes {
    let x = xor(shr::<2>(a), shl::<19>(a));
    let y = xor(shr::<13>(a), shl::<10>(a));
    xor(xor(x, y), xor(shr::<22>(a), shl::<30>(a)))
}

#[inline(always)]
fn big_sigma1(e: Lanes) -> Lanes {
    let x = xor(shr::<6>(e), shl::<21>(e));
    let y = xor(shr::<11>(e), shl::<7>(e));
    xor(xor(x, y), xor(shr::<25>(e), shl::<26>(e)))
}

#[inline(always)]
fn small_sigma0(w: Lanes) -> Lanes {
    let x = xor(shr::<7>(w), shl::<14>(w));
    let y = xor(shr::<18>(w), shl::<25>(w));
    xor(xor(x, y), shr::<3>(w))
}

#[inline(always)]
fn small_sigma1(w: Lanes) -> Lanes {
    let x = xor(shr::<17>(w), shl::<13>(w));
    let y = xor(shr::<19>(w), shl::<15>(w));
    xor(xor(x, y), shr::<10>(w))
}

/// The SHA-256 compression of one block per lane: equal to
/// [`Sha256::compress`] on each lane.
fn compress4(state: &mut [Lanes; 8], blocks: &[[u8; BLOCK_BYTES]; 4]) {
    let mut w = [[0u32; 4]; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = blocks
            .map(|b| u32::from_be_bytes([b[4 * i], b[4 * i + 1], b[4 * i + 2], b[4 * i + 3]]));
    }
    for i in 16..64 {
        w[i] = add(
            add(w[i - 16], small_sigma0(w[i - 15])),
            add(w[i - 7], small_sigma1(w[i - 2])),
        );
    }
    // Round i reads a, b, c, d from av[i + 3], av[i + 2], av[i + 1],
    // av[i] (e to h likewise from ev) and writes only the new a and e,
    // so no state word moves between rounds.
    let mut av = [[0u32; 4]; 68];
    let mut ev = [[0u32; 4]; 68];
    for j in 0..4 {
        av[3 - j] = state[j];
        ev[3 - j] = state[4 + j];
    }
    for i in 0..64 {
        let (a, b, c, d) = (av[i + 3], av[i + 2], av[i + 1], av[i]);
        let (e, f, g, h) = (ev[i + 3], ev[i + 2], ev[i + 1], ev[i]);
        let ch = xor(and(e, f), and_not(e, g));
        let t1 = add(add(h, big_sigma1(e)), add(ch, add([K[i]; 4], w[i])));
        let maj = xor(xor(and(a, b), and(a, c)), and(b, c));
        let t2 = add(big_sigma0(a), maj);
        ev[i + 4] = add(d, t1);
        av[i + 4] = add(t1, t2);
    }
    for j in 0..4 {
        state[j] = add(state[j], av[67 - j]);
        state[4 + j] = add(state[4 + j], ev[67 - j]);
    }
}

/// Four SHA-256 hashers fed four equal-length messages in lock-step,
/// one [`compress4`] per block. Equal lengths let the lanes share the
/// buffer fill and the message length.
#[derive(Debug, Clone)]
struct Sha256x4 {
    state: [Lanes; 8],
    buffer: [[u8; BLOCK_BYTES]; 4],
    buffered: usize,
    total_len: u64,
}

impl Sha256x4 {
    /// Four copies of `h`.
    fn splat(h: &Sha256) -> Self {
        Self {
            state: h.state.map(|w| [w; 4]),
            buffer: [h.buffer; 4],
            buffered: h.buffered,
            total_len: h.total_len,
        }
    }

    /// Absorbs `data[lane]` into each lane.
    ///
    /// # Panics
    ///
    /// Panics when the four slices differ in length.
    fn update(&mut self, data: [&[u8]; 4]) {
        let len = data[0].len();
        assert!(
            data.iter().all(|d| d.len() == len),
            "four-lane SHA-256 needs equal-length parts"
        );
        self.total_len = self.total_len.wrapping_add(len as u64);
        let mut at = 0;
        while at < len {
            let take = (BLOCK_BYTES - self.buffered).min(len - at);
            for (buffer, d) in self.buffer.iter_mut().zip(data) {
                buffer[self.buffered..self.buffered + take].copy_from_slice(&d[at..at + take]);
            }
            self.buffered += take;
            at += take;
            if self.buffered == BLOCK_BYTES {
                compress4(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
    }

    /// The four hashers, one per lane.
    fn split(self) -> [Sha256; 4] {
        std::array::from_fn(|lane| Sha256 {
            state: self.state.map(|w| w[lane]),
            buffer: self.buffer[lane],
            buffered: self.buffered,
            total_len: self.total_len,
        })
    }

    /// The four digests, padded as [`Sha256::finalize`] pads.
    fn finalize(mut self) -> [Digest; 4] {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut blocks = [[0u8; BLOCK_BYTES]; 4];
        for (block, buffer) in blocks.iter_mut().zip(&self.buffer) {
            block[..self.buffered].copy_from_slice(&buffer[..self.buffered]);
            block[self.buffered] = 0x80;
        }
        if self.buffered >= BLOCK_BYTES - 8 {
            compress4(&mut self.state, &blocks);
            blocks = [[0u8; BLOCK_BYTES]; 4];
        }
        for block in &mut blocks {
            block[BLOCK_BYTES - 8..].copy_from_slice(&bit_len.to_be_bytes());
        }
        compress4(&mut self.state, &blocks);
        std::array::from_fn(|lane| {
            let mut out = [0u8; DIGEST_BYTES];
            for (i, w) in self.state.iter().enumerate() {
                out[4 * i..4 * i + 4].copy_from_slice(&w[lane].to_be_bytes());
            }
            out
        })
    }
}

/// The HMAC key block: the key zero-padded to one block, or its digest
/// when it is longer than a block.
fn key_block(key: &[u8]) -> [u8; BLOCK_BYTES] {
    let mut block = [0u8; BLOCK_BYTES];
    if key.len() > BLOCK_BYTES {
        block[..DIGEST_BYTES].copy_from_slice(&Sha256::digest(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    block
}

/// HMAC-SHA-256 (RFC 2104) over `data` under `key`.
///
/// Derives the padded key blocks on every call; it is the reference the
/// keyed [`HmacSha256`] context is tested against.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Digest {
    let key_block = key_block(key);
    let mut ipad = [0x36u8; BLOCK_BYTES];
    let mut opad = [0x5cu8; BLOCK_BYTES];
    for i in 0..BLOCK_BYTES {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(data);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// A keyed HMAC-SHA-256 context.
///
/// `new` absorbs the key's ipad and opad blocks once; each
/// [`mac`](Self::mac) clones the two midstates, so a tag costs the
/// message's compressions plus one for the outer hash, not two more for
/// the key. Equal to [`hmac_sha256`] over the concatenated parts.
///
/// # Examples
///
/// ```
/// use seda_crypto::sha256::{hmac_sha256, HmacSha256};
///
/// let keyed = HmacSha256::new(b"key");
/// assert_eq!(keyed.mac(&[b"split ", b"message"]), hmac_sha256(b"key", b"split message"));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a context under `key` (any length, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let key_block = key_block(key);
        let mut inner = Sha256::new();
        let mut outer = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        outer.update(&key_block.map(|b| b ^ 0x5c));
        Self { inner, outer }
    }

    /// The HMAC of the concatenation of `parts`.
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Four HMACs at once, each over the concatenation of its lane's
    /// parts: equal to four [`mac`](Self::mac) calls. Part `i` must have
    /// the same length in every lane; the lanes share one four-lane
    /// compression per block.
    ///
    /// # Panics
    ///
    /// Panics when the lanes' part counts or part lengths differ.
    pub fn mac4(&self, parts: [&[&[u8]]; 4]) -> [Digest; 4] {
        let count = parts[0].len();
        assert!(
            parts.iter().all(|p| p.len() == count),
            "mac4 needs the same part count in every lane"
        );
        let mut inner = Sha256x4::splat(&self.inner);
        for i in 0..count {
            inner.update(parts.map(|p| p[i]));
        }
        let digests = inner.finalize();
        let mut outer = Sha256x4::splat(&self.outer);
        outer.update(digests.each_ref().map(|d| &d[..]));
        outer.finalize()
    }

    /// This context with `block` absorbed as the start of every message
    /// it tags: `self.absorb(b).mac(parts)` equals `self.mac` over `b`
    /// followed by `parts`.
    pub fn absorb(&self, block: &[u8; BLOCK_BYTES]) -> Self {
        let mut inner = self.inner.clone();
        inner.update(block);
        Self {
            inner,
            outer: self.outer.clone(),
        }
    }

    /// [`absorb`](Self::absorb) of four blocks at once, over one
    /// four-lane compression.
    pub fn absorb4(&self, blocks: [&[u8; BLOCK_BYTES]; 4]) -> [Self; 4] {
        let mut inner = Sha256x4::splat(&self.inner);
        inner.update(blocks.map(|b| &b[..]));
        inner.split().map(|inner| Self {
            inner,
            outer: self.outer.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 299] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    /// Every padding case of `finalize`: the empty message, tails that
    /// fit the length in their own block (0–55 bytes), tails of 56–63
    /// bytes that spill it into a second block, and exact block
    /// multiples. The digests of each prefix of a 130-byte message are
    /// folded into one pinned hash.
    #[test]
    fn digests_of_every_short_length_are_pinned() {
        let data: Vec<u8> = (0..130u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut fold = Sha256::new();
        for n in 0..=data.len() {
            fold.update(&Sha256::digest(&data[..n]));
        }
        assert_eq!(
            hex(&fold.finalize()),
            "b3d31aa6b4f0810cff11dc15fd1017d7ba047ad10e757b0e36ed68897e6d1851"
        );
    }

    /// The keyed context against `hmac_sha256`, and its lane path
    /// (`mac4`, `absorb`, `absorb4`) against the scalar `mac`: every
    /// message length up to 199 bytes (both padding cases and several
    /// blocks), every key class, four distinct messages per lane, and
    /// parts split at and around the block boundaries.
    #[test]
    fn keyed_context_matches_the_reference() {
        let msgs: [Vec<u8>; 4] = std::array::from_fn(|lane| {
            (0..199u32)
                .map(|i| (i * 31 + 5 + 71 * lane as u32) as u8)
                .collect()
        });
        for key_len in [0usize, 16, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 + 1) as u8).collect();
            let keyed = HmacSha256::new(&key);
            for len in 0..msgs[0].len() {
                let m: [&[u8]; 4] = msgs.each_ref().map(|m| &m[..len]);
                let want = hmac_sha256(&key, m[0]);
                assert_eq!(keyed.mac(&[m[0]]), want, "key {key_len} B, msg {len} B");
                let lanes = m.map(|m| keyed.mac(&[m]));
                assert_eq!(keyed.mac4(m.each_ref().map(std::slice::from_ref)), lanes);
                for cut in [1usize, 55, 56, 63, 64, 65, 128].map(|c| c.min(len)) {
                    let (a, b) = m[0].split_at(cut);
                    assert_eq!(
                        keyed.mac(&[a, b]),
                        want,
                        "key {key_len}, msg {len}, cut {cut}"
                    );
                    assert_eq!(keyed.mac(&[a, &[], b]), want);
                    let parts = m.map(|m| m.split_at(cut)).map(|(a, b)| [a, &[], b]);
                    assert_eq!(keyed.mac4(parts.each_ref().map(|p| &p[..])), lanes);
                }
                if len >= BLOCK_BYTES {
                    let heads = m.map(|m| -> &[u8; BLOCK_BYTES] {
                        m[..BLOCK_BYTES].try_into().expect("one block")
                    });
                    for (lane, absorbed) in keyed.absorb4(heads).iter().enumerate() {
                        let rest = &m[lane][BLOCK_BYTES..];
                        assert_eq!(absorbed.mac(&[rest]), lanes[lane]);
                        assert_eq!(keyed.absorb(heads[lane]).mac(&[rest]), lanes[lane]);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length parts")]
    fn mac4_rejects_unequal_lengths() {
        HmacSha256::new(b"k").mac4([&[b"ab"], &[b"ab"], &[b"abc"], &[b"ab"]]);
    }

    /// RFC 4231 test case 2.
    #[test]
    fn hmac_rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 1.
    #[test]
    fn hmac_rfc4231_case1() {
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 6 (key longer than one block).
    #[test]
    fn hmac_rfc4231_case6() {
        let mac = hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }
}
