//! The workspace's two checksums.
//!
//! [`fnv1a`] is byte-serial 64-bit FNV-1a: one dependent multiply per
//! byte. It checksums the 40-byte stream checkpoints and version-1
//! snapshots, hashes golden outputs in the test suites and seeds
//! `rrs-check`'s cases.
//!
//! [`word_checksum`] takes FNV's multiply over little-endian 64-bit words
//! in four independent lanes, so four multiplies are in flight at once
//! and a byte costs an eighth of a step. It checksums wire frames and
//! version-2 snapshots:
//!
//! ```text
//! lane[i] = state ^ LANE_SEEDS[i]                       i = 0..4
//! for each whole 32-byte block, words w0..w3:
//!     lane[i] = mix((lane[i] ^ wi) · FNV_PRIME)
//! h = state
//! for i = 0..4:  h = mix((h ^ lane[i]) · FNV_PRIME)     (fold)
//! for each byte b of the tail (< 32 bytes):
//!     h = (h ^ b) · FNV_PRIME                           (byte-wise FNV-1a)
//!
//! mix(m) = m ^ (m >> 32)
//! ```
//!
//! A multiply carries a change only upward, toward bit 63. Without
//! `mix`, a flipped bit 63 of a word would stay exactly a flipped bit 63
//! through every later step (2⁶³·`FNV_PRIME` ≡ 2⁶³ mod 2⁶⁴), so two such
//! flips, two negated `f64` samples, would cancel, and any damage confined
//! to the top bits of the words would be checked by those bits alone.
//! `mix` moves the product's high half down onto its low half, so the
//! next multiply spreads every change over all 64 bits.
//!
//! `FNV_PRIME` is odd and `mix` undoes itself, so every step is a
//! bijection of the state it updates, for any input word or byte, and of
//! the input for any state. A change confined to one aligned word of the
//! blocks, or to one byte of the tail, therefore always changes the
//! result, as one changed byte always does under FNV-1a.

/// FNV-1a's 64-bit offset basis: the hash of zero bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV's 64-bit prime, the multiplier of every step of both checksums.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The word checksum's block: one little-endian `u64` word per lane.
const BLOCK: usize = 32;

/// What each lane XORs into the starting state, so no two lanes start
/// equal: the first fractional hex digits of π.
const LANE_SEEDS: [u64; 4] =
    [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, 0x082E_FA98_EC4E_6C89];

/// One FNV step: a bijection of `h` for any `x`, and of `x` for any `h`.
#[inline(always)]
fn step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// One word-checksum step: the FNV step, then the product's high half
/// mixed down onto its low half. Still a bijection of `h` and of `w`.
#[inline(always)]
fn word_step(h: u64, w: u64) -> u64 {
    let m = step(h, w);
    m ^ (m >> 32)
}

/// 64-bit FNV-1a of `bytes`: the checksum of checkpoint and version-1
/// snapshot records, and the golden-hash function of the test suites.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a hash `state` over `bytes`, so a checksum can span
/// several buffers: `fnv1a_extend(fnv1a(a), b)` equals the hash of `a`
/// followed by `b`.
#[inline]
pub fn fnv1a_extend(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| step(h, u64::from(b)))
}

/// The four-lane word checksum of `bytes` (see the module docs): the
/// checksum of wire frames and version-2 snapshots. Part of both formats,
/// so its value for a given input never changes.
#[inline]
pub fn word_checksum(bytes: &[u8]) -> u64 {
    word_checksum_extend(FNV_OFFSET, bytes)
}

/// Continues a checksum `state` over `bytes` with the four-lane word
/// checksum, so a record can be checksummed in parts: a frame checksums
/// its header, then carries the result on over its payload. Unlike
/// [`fnv1a_extend`], the result depends on where the parts split.
pub fn word_checksum_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS.map(|seed| state ^ seed);
    let blocks = bytes.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = word_step(*lane, u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
    }
    let h = lanes.iter().fold(state, |h, &lane| word_step(h, lane));
    fnv1a_extend(h, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` bytes with no two neighbouring words equal.
    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(151).wrapping_add(7)).collect()
    }

    #[test]
    fn the_word_checksum_of_a_fixed_input_is_pinned() {
        // A format constant: wire frames and RRSSNAP2 snapshots carry this
        // function's values, so changing it breaks every reader.
        let bytes: Vec<u8> = (0..100).collect();
        assert_eq!(word_checksum(&bytes), 0xf64e_8295_9119_2fe2);
    }

    #[test]
    fn fnv1a_keeps_its_published_values() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn flipping_any_single_bit_changes_the_word_checksum() {
        for len in 0..=80 {
            let clean = sample(len);
            let h = word_checksum(&clean);
            for bit in 0..len * 8 {
                let mut flipped = clean.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(word_checksum(&flipped), h, "length {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn replacing_any_aligned_word_changes_the_word_checksum() {
        for len in 0..=80 {
            let clean = sample(len);
            let h = word_checksum(&clean);
            for at in (0..len / 8).map(|i| 8 * i) {
                let word = u64::from_le_bytes(clean[at..at + 8].try_into().unwrap());
                for other in [0, u64::MAX, !word, word.rotate_left(8), word ^ (1 << 63) ^ 1] {
                    if other == word {
                        continue;
                    }
                    let mut replaced = clean.clone();
                    replaced[at..at + 8].copy_from_slice(&other.to_le_bytes());
                    assert_ne!(word_checksum(&replaced), h, "length {len}, word at {at}");
                }
            }
        }
    }

    #[test]
    fn swapping_two_words_of_a_block_changes_the_word_checksum() {
        let mut bytes = sample(64);
        let h = word_checksum(&bytes);
        let (a, b) = bytes.split_at_mut(8);
        a.swap_with_slice(&mut b[..8]);
        assert_ne!(word_checksum(&bytes), h);
    }

    #[test]
    fn flipping_the_top_bit_of_any_set_of_block_words_changes_the_word_checksum() {
        // Bit 63 of a word is an f64's sign bit: a multiply alone carries
        // its flip on unchanged, so pairs of flips would cancel.
        for len in [32, 40, 64, 96, 100] {
            let clean = sample(len);
            let h = word_checksum(&clean);
            let words = len / 32 * 4;
            for set in 1u32..1 << words {
                let mut flipped = clean.clone();
                for k in (0..words).filter(|k| set >> k & 1 == 1) {
                    flipped[8 * k + 7] ^= 0x80;
                }
                assert_ne!(word_checksum(&flipped), h, "length {len}, words {set:#b}");
            }
        }
    }

    #[test]
    fn random_damage_to_the_top_byte_of_many_words_changes_the_word_checksum() {
        // Damage confined to sign and high exponent bits. Were the top
        // byte checked by eight bits of the checksum alone, about 1 in
        // 256 of these cases would pass.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..20_000 {
            let len = 32 + (next() % 480) as usize;
            let clean = sample(len);
            let h = word_checksum(&clean);
            let mut damaged = clean.clone();
            let mut changed = false;
            for k in 0..len / 32 * 4 {
                let r = next();
                if r % 3 == 0 {
                    let mask = (r >> 8) as u8;
                    damaged[8 * k + 7] ^= mask;
                    changed |= mask != 0;
                }
            }
            if changed {
                assert_ne!(word_checksum(&damaged), h, "case {case}, length {len}");
            }
        }
    }
}
