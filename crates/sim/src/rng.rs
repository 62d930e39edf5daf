//! Reproducible hierarchical random-number streams.
//!
//! Every stochastic component of the simulation (radio placement, sensor
//! field, workload generator, per-node jitter, …) gets its **own** stream
//! derived from a single master seed and a stable stream label. This keeps
//! runs reproducible *and* insulated: adding draws to one component never
//! perturbs another component's sequence, so experiments stay comparable
//! across code changes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The concrete RNG used throughout the workspace.
///
/// `SmallRng` (xoshiro-family) is fast and plenty for simulation; nothing
/// here is cryptographic.
pub type SimRng = SmallRng;

/// SplitMix64 step — used only for seed derivation, never for simulation
/// draws. Standard constants from Steele et al., "Fast Splittable
/// Pseudorandom Number Generators".
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a label into a seed so that distinct labels yield decorrelated
/// streams even for adjacent master seeds.
fn derive(master: u64, label: &str, index: u64) -> [u8; 32] {
    // FNV-1a over the label gives a stable 64-bit label hash without
    // depending on std's randomized hasher.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut state = master ^ h.rotate_left(17) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut out = [0u8; 32];
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out
}

/// Factory for named, index-addressed random streams.
///
/// ```
/// use dirq_sim::RngFactory;
/// use rand::Rng;
/// let f = RngFactory::new(42);
/// let mut radio = f.stream("radio");
/// let mut node7 = f.indexed_stream("node", 7);
/// // Streams are independent and reproducible:
/// let a: u64 = radio.gen();
/// let b: u64 = f.stream("radio").gen();
/// assert_eq!(a, b);
/// let c: u64 = node7.gen();
/// assert_ne!(a, c);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Create a factory for `master` seed.
    pub fn new(master: u64) -> Self {
        RngFactory { master }
    }

    /// A stream identified by a label only.
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::from_seed(derive(self.master, label, 0))
    }

    /// A stream identified by a label and an index (e.g. per-node streams).
    pub fn indexed_stream(&self, label: &str, index: u64) -> SimRng {
        SimRng::from_seed(derive(self.master, label, index.wrapping_add(1)))
    }

    /// A 64-bit key for a [`StreamRng`] family, derived like the seeded
    /// streams: stable in the master seed, the label and the index.
    /// Per-element keys are then split off with [`split_key`].
    pub fn stream_key(&self, label: &str, index: u64) -> u64 {
        let bytes = derive(self.master, label, index.wrapping_add(1));
        let mut k = [0u8; 8];
        k.copy_from_slice(&bytes[..8]);
        u64::from_le_bytes(k)
    }
}

/// A splittable, counter-based random stream.
///
/// Output `i` of a stream is a **pure function** of `(key, i)` — a
/// splitmix64-style finalizer over the key plus a Weyl-sequenced counter —
/// so a stream can be created (or repositioned) in O(1) with no seeding
/// or warm-up cost. That is the property the parallel world generator is
/// built on: every `(node, type)` pair owns its own key, each epoch jumps
/// its stream to a fixed counter offset, and the draws are byte-identical
/// no matter which thread (or in which order) they happen.
///
/// Keys come from [`RngFactory::stream_key`] and are split per element
/// with [`split_key`]; both derivations finish with a full 64-bit mix, so
/// adjacent indices yield decorrelated streams. Statistical quality is
/// that of splitmix64 — more than adequate for simulation noise, not for
/// cryptography.
#[derive(Clone, Copy, Debug)]
pub struct StreamRng {
    key: u64,
    ctr: u64,
}

impl StreamRng {
    /// Stream for `key`, positioned at counter 0.
    #[inline]
    pub fn new(key: u64) -> Self {
        StreamRng { key, ctr: 0 }
    }

    /// Stream for `key` positioned at absolute counter `ctr` — O(1)
    /// random access into the stream (e.g. a fixed draw budget per epoch).
    #[inline]
    pub fn at(key: u64, ctr: u64) -> Self {
        StreamRng { key, ctr }
    }

    /// The current counter position (draws consumed since counter 0).
    #[inline]
    pub fn position(&self) -> u64 {
        self.ctr
    }
}

impl rand::RngCore for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // splitmix64 finalizer over key ⊕ Weyl(counter): equivalent to
        // splitmix64 seeded at `key` and jumped to position `ctr`.
        let mut z = self.key.wrapping_add(self.ctr.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.ctr = self.ctr.wrapping_add(1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Split a stream key per element: mix `index` into `key` with a full
/// avalanche so `split_key(k, i)` and `split_key(k, i + 1)` are
/// decorrelated. Composable (`split_key(split_key(k, a), b)`) for
/// multi-axis stream families like `(type, node)`.
#[inline]
pub fn split_key(key: u64, index: u64) -> u64 {
    let mut s = key ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

/// Draw from a normal distribution via the Box–Muller transform.
///
/// `rand` 0.8 without `rand_distr` has no Gaussian sampler; this is the
/// standard polar-free form, adequate for synthetic sensor noise.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    // Guard u1 away from 0 so ln() is finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    mean + std_dev * r * (std::f64::consts::TAU * u2).cos()
}

/// Draw **two independent** standard-normal values from one Box–Muller
/// transform (the cosine and sine halves), spending one `ln`, one `sqrt`
/// and one `sin_cos` for the pair — half the transcendental cost of two
/// [`sample_normal`] calls. Consumes exactly 2 `u64` draws. The world
/// generator pairs a cell's AR(1) innovation with its measurement noise.
pub fn sample_std_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    (r * cos, r * sin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_labels_reproduce() {
        let f = RngFactory::new(123);
        let a: Vec<u32> = (0..16).map(|_| f.stream("x").gen::<u32>()).collect();
        let b: Vec<u32> = (0..16).map(|_| f.stream("x").gen::<u32>()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_decorrelate() {
        let f = RngFactory::new(123);
        let a: u64 = f.stream("alpha").gen();
        let b: u64 = f.stream("beta").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_decorrelate() {
        let f = RngFactory::new(9);
        let vals: Vec<u64> = (0..64).map(|i| f.indexed_stream("node", i).gen()).collect();
        let mut uniq = vals.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), vals.len(), "per-index streams must differ");
    }

    #[test]
    fn adjacent_master_seeds_decorrelate() {
        let a: u64 = RngFactory::new(1000).stream("s").gen();
        let b: u64 = RngFactory::new(1001).stream("s").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = RngFactory::new(5).stream("normal");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean} too far from 3.0");
        assert!((var - 4.0).abs() < 0.25, "variance {var} too far from 4.0");
    }

    #[test]
    fn stream_rng_is_counter_addressable() {
        // Output i must be a pure function of (key, i): sequential draws
        // and O(1) jumps read the same stream.
        let key = RngFactory::new(7).stream_key("world", 0);
        let mut seq = StreamRng::new(key);
        let sequential: Vec<u64> = (0..32).map(|_| seq.gen::<u64>()).collect();
        for (i, &want) in sequential.iter().enumerate() {
            assert_eq!(StreamRng::at(key, i as u64).gen::<u64>(), want, "position {i}");
        }
        assert_eq!(seq.position(), 32);
    }

    #[test]
    fn stream_keys_decorrelate_per_index() {
        let base = RngFactory::new(11).stream_key("nodes", 3);
        let mut firsts: Vec<u64> =
            (0..256).map(|i| StreamRng::new(split_key(base, i)).gen()).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 256, "split streams must not collide");
        // Composition axes are independent: (a then b) != (b then a).
        assert_ne!(split_key(split_key(base, 1), 2), split_key(split_key(base, 2), 1));
    }

    #[test]
    fn stream_rng_normal_moments() {
        // The Box–Muller sampler over the counter stream keeps its moments
        // — the split generator is a drop-in for the seeded one.
        let key = RngFactory::new(13).stream_key("normal", 0);
        let mut rng = StreamRng::new(key);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, -1.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean + 1.0).abs() < 0.05, "mean {mean} too far from -1.0");
        assert!((var - 0.25).abs() < 0.05, "variance {var} too far from 0.25");
    }

    #[test]
    fn std_normal_pair_moments_and_independence() {
        let mut rng = RngFactory::new(17).stream("pair");
        let n = 20_000;
        let pairs: Vec<(f64, f64)> = (0..n).map(|_| sample_std_normal_pair(&mut rng)).collect();
        for pick in [0usize, 1] {
            let xs: Vec<f64> = pairs.iter().map(|&(a, b)| if pick == 0 { a } else { b }).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.05, "half {pick}: mean {mean} too far from 0");
            assert!((var - 1.0).abs() < 0.05, "half {pick}: variance {var} too far from 1");
        }
        // The halves are uncorrelated (orthogonal cos/sin projections).
        let cov = pairs.iter().map(|&(a, b)| a * b).sum::<f64>() / n as f64;
        assert!(cov.abs() < 0.05, "pair covariance {cov} too large");
    }

    #[test]
    fn stream_key_depends_on_master_label_and_index() {
        let f = RngFactory::new(21);
        assert_ne!(f.stream_key("a", 0), f.stream_key("b", 0));
        assert_ne!(f.stream_key("a", 0), f.stream_key("a", 1));
        assert_ne!(f.stream_key("a", 0), RngFactory::new(22).stream_key("a", 0));
        assert_eq!(f.stream_key("a", 5), RngFactory::new(21).stream_key("a", 5));
    }

    #[test]
    fn splitmix_known_values() {
        // Reference values from the splitmix64 reference implementation
        // with seed 0: first output must be 0x E220A8397B1DCDAF.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }
}
