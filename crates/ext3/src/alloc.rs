//! Bitmap allocation primitives.
//!
//! ext3 tracks block and inode allocation with one bitmap block per group.
//! These helpers operate on raw bitmap blocks; the file system composes them
//! with group iteration. Note there is deliberately **no** validity checking
//! here: ext3 trusts bitmap contents completely (§5.1 — bitmaps get no type
//! or sanity checks), so a corrupted bitmap silently mis-allocates.

use iron_core::Block;

/// Test bit `i`.
pub fn bit_test(b: &Block, i: u64) -> bool {
    let byte = (i / 8) as usize;
    let mask = 1u8 << (i % 8);
    b[byte] & mask != 0
}

/// Set bit `i` (mark allocated).
pub fn bit_set(b: &mut Block, i: u64) {
    let byte = (i / 8) as usize;
    b[byte] |= 1u8 << (i % 8);
}

/// Clear bit `i` (mark free).
pub fn bit_clear(b: &mut Block, i: u64) {
    let byte = (i / 8) as usize;
    b[byte] &= !(1u8 << (i % 8));
}

/// Find the first zero bit below `limit`, preferring bits at or after
/// `hint` (simple locality heuristic, like ext3's goal blocks): scan from
/// `hint` up to `limit`, then wrap around to the bits below `hint`.
pub fn find_free(b: &Block, limit: u64, hint: u64) -> Option<u64> {
    let start = hint.min(limit);
    first_zero(b, start, limit).or_else(|| first_zero(b, 0, start))
}

/// The first zero bit in `lo..hi`, scanning a 64-bit little-endian word
/// at a time (bit `i` is bit `i % 8` of byte `i / 8`).
fn first_zero(b: &Block, lo: u64, hi: u64) -> Option<u64> {
    let mut i = lo;
    while i < hi {
        let word = b.get_u64((i / 64 * 8) as usize);
        let free = !word >> (i % 64);
        if free != 0 {
            let bit = i + u64::from(free.trailing_zeros());
            return (bit < hi).then_some(bit);
        }
        i = (i / 64 + 1) * 64;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_core::BLOCK_SIZE;
    use iron_testkit::{check, gen, Config};

    /// The bit-by-bit scan `find_free` must agree with.
    fn model_find_free(b: &Block, limit: u64, hint: u64) -> Option<u64> {
        let start = hint.min(limit);
        (start..limit).chain(0..start).find(|&i| !bit_test(b, i))
    }

    #[test]
    fn set_test_clear() {
        let mut b = Block::zeroed();
        assert!(!bit_test(&b, 0));
        bit_set(&mut b, 0);
        bit_set(&mut b, 7);
        bit_set(&mut b, 8);
        bit_set(&mut b, 1023);
        assert!(bit_test(&b, 0));
        assert!(bit_test(&b, 7));
        assert!(bit_test(&b, 8));
        assert!(bit_test(&b, 1023));
        assert!(!bit_test(&b, 9));
        bit_clear(&mut b, 7);
        assert!(!bit_test(&b, 7));
        assert!(bit_test(&b, 8), "neighbors untouched");
    }

    #[test]
    fn find_free_respects_limit_and_hint() {
        let mut b = Block::zeroed();
        for i in 0..10 {
            bit_set(&mut b, i);
        }
        assert_eq!(find_free(&b, 1024, 0), Some(10));
        // Hint skips ahead…
        assert_eq!(find_free(&b, 1024, 100), Some(100));
        // …but wraps around when the tail is full.
        let mut c = Block::zeroed();
        for i in 5..1024 {
            bit_set(&mut c, i);
        }
        assert_eq!(find_free(&c, 1024, 500), Some(0));
        // Full bitmap yields None.
        let mut full = Block::zeroed();
        for i in 0..64 {
            bit_set(&mut full, i);
        }
        assert_eq!(find_free(&full, 64, 0), None);
        // A free bit just above a limit that ends mid-word is not
        // returned, whatever the hint.
        let mut tail = Block::zeroed();
        for i in 0..100 {
            bit_set(&mut tail, i);
        }
        assert_eq!(find_free(&tail, 100, 0), None);
        assert_eq!(find_free(&tail, 100, 99), None);
        assert_eq!(find_free(&tail, 101, 50), Some(100));
        // A hint at or past the limit scans from the start.
        assert_eq!(find_free(&b, 1000, 1000), Some(10));
        assert_eq!(find_free(&b, 1000, 5000), Some(10));
        // Wrap-around past a full tail whose limit ends mid-word.
        let mut d = Block::filled(0xFF);
        bit_clear(&mut d, 70);
        bit_clear(&mut d, 1000);
        assert_eq!(find_free(&d, 999, 71), Some(70));
        assert_eq!(find_free(&d, 1001, 71), Some(1000));
    }

    #[test]
    fn find_free_matches_bitwise_model() {
        // Mostly-full bitmaps with a few free bits (some just above the
        // limit), or random bytes; limits on and off 64-bit boundaries;
        // hints below, at and past the limit.
        let input = gen::from_fn(|rng| {
            let bits = (BLOCK_SIZE * 8) as u64;
            let limit = match rng.below(3) {
                0 => rng.below(bits / 64 + 1) * 64,
                1 => rng.below(bits + 1),
                _ => rng.below(200),
            };
            let mut bytes = vec![0xFFu8; BLOCK_SIZE];
            if rng.chance(1, 4) {
                rng.fill(&mut bytes);
            } else {
                for _ in 0..rng.below(6) {
                    let bit = match rng.below(3) {
                        0 => limit + rng.below(64),
                        _ => rng.below(bits),
                    };
                    if bit < bits {
                        bytes[(bit / 8) as usize] &= !(1u8 << (bit % 8));
                    }
                }
            }
            let hint = rng.below(limit + 130);
            (bytes, limit, hint)
        });
        check(
            "find_free_matches_bitwise_model",
            Config::cases(512),
            &input,
            |(bytes, limit, hint)| {
                let b = Block::from_bytes(bytes);
                assert_eq!(
                    find_free(&b, *limit, *hint),
                    model_find_free(&b, *limit, *hint),
                    "limit {limit}, hint {hint}"
                );
            },
        );
    }
}
