//! The noise fill `rrs_surface::NoiseField` had before its key and
//! deviate changed, kept only so `bench_generation` can time the two in
//! paired reps.
//!
//! The key was `seed + ix·γ + iy·c` with γ SplitMix64's own increment,
//! the two words SplitMix64's outputs from that key, and the deviate used
//! libm's `ln` and `cos`, each batch's cosines evaluated in order of
//! angle. Not a noise source: along x the radius word of one point is the
//! angle word of the next, so neighbours are dependent.

use rrs_rng::{RandomSource, SplitMix64};

/// Samples per batch of the row fill.
const BATCH: usize = 1024;

/// Angle buckets of the counting sort: the top 6 bits of the angle word.
const BUCKET_BITS: u32 = 6;

/// The previous lattice of one seed.
#[derive(Clone, Copy, Debug)]
pub struct ParentNoise {
    seed: u64,
}

impl ParentNoise {
    /// The previous lattice of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn key(&self, ix: i64, iy: i64) -> u64 {
        self.seed
            .wrapping_add((ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((iy as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
    }

    /// The angle word and radius of `(ix, iy)`.
    fn angle_word_and_radius(&self, ix: i64, iy: i64) -> (u64, f64) {
        let mut g = SplitMix64::new(self.key(ix, iy));
        let word = g.next_u64();
        let u2 = g.next_f64_open();
        (word, (-2.0 * u2.ln()).sqrt())
    }

    /// Fills `out` with the row-major `w × h` window at `(x0, y0)`, one
    /// batch at a time, the cosines of each batch counting-sorted by the
    /// angle word's top bits.
    pub fn window_into(&self, x0: i64, y0: i64, w: usize, h: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(w * h, 0.0);
        let mut words = [0u64; BATCH];
        let mut order = [0u16; BATCH];
        let bucket = |word: u64| (word >> (64 - BUCKET_BITS)) as usize;
        for (iy, row) in out.chunks_exact_mut(w.max(1)).enumerate() {
            let y = y0.wrapping_add(iy as i64);
            for (b, chunk) in row.chunks_mut(BATCH).enumerate() {
                let bx0 = x0.wrapping_add((b * BATCH) as i64);
                let mut starts = [0u16; 1 << BUCKET_BITS];
                for (i, (slot, word)) in chunk.iter_mut().zip(&mut words).enumerate() {
                    let (wd, radius) = self.angle_word_and_radius(bx0.wrapping_add(i as i64), y);
                    (*slot, *word) = (radius, wd);
                    starts[bucket(wd)] += 1;
                }
                let mut sum = 0;
                for start in &mut starts {
                    (*start, sum) = (sum, sum + *start);
                }
                for (i, &wd) in words[..chunk.len()].iter().enumerate() {
                    let start = &mut starts[bucket(wd)];
                    order[*start as usize] = i as u16;
                    *start += 1;
                }
                for &i in &order[..chunk.len()] {
                    chunk[i as usize] *= angle(words[i as usize]).cos();
                }
            }
        }
    }
}

/// The angle `2π·u1` of an angle word.
fn angle(word: u64) -> f64 {
    core::f64::consts::TAU * ((word >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_equal_the_previous_lattice_bit_for_bit() {
        // Two rows of 2500 (two whole batches and a partial one each),
        // hashed with FNV-1a; the value is the same window's hash from
        // `NoiseField` before its key and deviate changed.
        let mut win = Vec::new();
        ParentNoise::new(2024).window_into(-1300, 77, 2500, 2, &mut win);
        let bytes: Vec<u8> = win.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(rrs_num::fnv1a(&bytes), 0x55de_aca2_e61b_924f);
    }

    #[test]
    fn the_radius_word_is_the_next_points_angle_word() {
        // The defect the new key removed, shown on the kept copy.
        let f = ParentNoise::new(5);
        let mut g = SplitMix64::new(f.key(10, 3));
        g.next_u64();
        assert_eq!(g.next_u64(), f.angle_word_and_radius(11, 3).0);
    }
}
