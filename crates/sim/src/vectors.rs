use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A packed set of primary-input vectors for bit-parallel simulation.
///
/// Vector `v` is stored across bit `v % 64` of word `v / 64` of every
/// input's word row; simulating one word row evaluates 64 vectors at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorSet {
    n_inputs: usize,
    n_words: usize,
    words: Vec<u64>,
}

impl VectorSet {
    /// Generates `n_vectors` uniformly random vectors (rounded up to a
    /// multiple of 64) from a fixed seed, so runs are reproducible.
    ///
    /// # Example
    ///
    /// ```
    /// let v = sim::VectorSet::random(10, 256, 42);
    /// assert_eq!(v.n_inputs(), 10);
    /// assert_eq!(v.n_words(), 4);
    /// assert_eq!(v, sim::VectorSet::random(10, 256, 42));
    /// ```
    #[must_use]
    pub fn random(n_inputs: usize, n_vectors: usize, seed: u64) -> Self {
        let n_words = n_vectors.div_ceil(64).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let words = (0..n_inputs * n_words).map(|_| rng.gen()).collect();
        VectorSet {
            n_inputs,
            n_words,
            words,
        }
    }

    /// Generates the complete input space of an `n_inputs`-input circuit.
    /// Clause survival under exhaustive simulation is proof of validity
    /// (Definition 1 quantifies over all input vectors).
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs > 24` (the vector count would be excessive).
    #[must_use]
    pub fn exhaustive(n_inputs: usize) -> Self {
        assert!(n_inputs <= 24, "exhaustive vectors limited to 24 inputs");
        let n_vectors = 1usize << n_inputs;
        let n_words = n_vectors.div_ceil(64);
        let mut words = vec![0u64; n_inputs * n_words];
        for i in 0..n_inputs {
            for w in 0..n_words {
                words[i * n_words + w] = if i < 6 {
                    // Repeating pattern within every word.
                    let block = 1u64 << i;
                    let mut word = 0u64;
                    let mut bit = 0;
                    while bit < 64 {
                        if (bit >> i) & 1 == 1 {
                            word |= ((1u64 << block) - 1).wrapping_shl(bit as u32);
                        }
                        bit += block as usize;
                    }
                    word
                } else {
                    // Whole words alternate.
                    if (w >> (i - 6)) & 1 == 1 {
                        !0
                    } else {
                        0
                    }
                };
            }
        }
        VectorSet {
            n_inputs,
            n_words,
            words,
        }
    }

    /// Builds a one-word set whose vector 0 is the given assignment (the
    /// remaining 63 lanes replicate it). Useful for replaying a single
    /// witness vector, e.g. a SAT counterexample, through the simulator.
    #[must_use]
    pub fn from_single(assignment: &[bool]) -> Self {
        let words = assignment
            .iter()
            .map(|&b| if b { !0u64 } else { 0 })
            .collect();
        VectorSet {
            n_inputs: assignment.len(),
            n_words: 1,
            words,
        }
    }

    /// An all-zero set of `n_vectors` vectors (rounded up to a multiple
    /// of 64), to be filled lane by lane with
    /// [`set_vector`](Self::set_vector) — e.g. a pool of SAT
    /// counterexamples replayed together.
    #[must_use]
    pub fn zeros(n_inputs: usize, n_vectors: usize) -> Self {
        let n_words = n_vectors.div_ceil(64).max(1);
        VectorSet {
            n_inputs,
            n_words,
            words: vec![0; n_inputs * n_words],
        }
    }

    /// The first `n_words` words of every input's row: this set's first
    /// `64 * n_words` vectors, unchanged. Word `w` of a simulated row
    /// depends only on word `w` of the input rows, so simulating the
    /// prefix gives exactly the prefix of every row of a full simulation.
    /// A set of at most `n_words` words is returned whole.
    ///
    /// # Panics
    ///
    /// Panics if `n_words` is 0.
    ///
    /// ```
    /// let full = sim::VectorSet::random(3, 2048, 5);
    /// let head = full.prefix(2);
    /// assert_eq!(head.n_vectors(), 128);
    /// assert_eq!(head.input_words(1), &full.input_words(1)[..2]);
    /// ```
    #[must_use]
    pub fn prefix(&self, n_words: usize) -> Self {
        assert!(n_words > 0, "a vector set holds at least one word");
        let n_words = n_words.min(self.n_words);
        let words = (0..self.n_inputs)
            .flat_map(|i| &self.input_words(i)[..n_words])
            .copied()
            .collect();
        VectorSet {
            n_inputs: self.n_inputs,
            n_words,
            words,
        }
    }

    /// Overwrites vector `v` with `assignment` (one value per input).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != n_inputs` or `v >= n_vectors`.
    pub fn set_vector(&mut self, v: usize, assignment: &[bool]) {
        assert_eq!(assignment.len(), self.n_inputs, "assignment width");
        assert!(v < self.n_vectors(), "vector {v} out of range");
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        for (i, &value) in assignment.iter().enumerate() {
            let word = &mut self.words[i * self.n_words + w];
            if value {
                *word |= bit;
            } else {
                *word &= !bit;
            }
        }
    }

    /// Number of primary inputs the set was built for.
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of 64-vector words per input.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Number of vectors (always a multiple of 64).
    #[must_use]
    pub fn n_vectors(&self) -> usize {
        self.n_words * 64
    }

    /// The word row of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_inputs`.
    #[must_use]
    pub fn input_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.n_words..(i + 1) * self.n_words]
    }

    /// The value of input `i` in vector `v`.
    #[must_use]
    pub fn bit(&self, i: usize, v: usize) -> bool {
        self.input_words(i)[v / 64] >> (v % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_enumerates_all_assignments() {
        let v = VectorSet::exhaustive(8);
        assert_eq!(v.n_vectors(), 256);
        let mut seen = vec![false; 256];
        for vec_idx in 0..256 {
            let mut val = 0usize;
            for i in 0..8 {
                if v.bit(i, vec_idx) {
                    val |= 1 << i;
                }
            }
            seen[val] = true;
        }
        assert!(seen.iter().all(|&b| b), "some assignment missing");
    }

    #[test]
    fn exhaustive_small_fits_one_word() {
        let v = VectorSet::exhaustive(3);
        assert_eq!(v.n_words(), 1);
        // Low 8 bits enumerate 000..111; input 0 toggles fastest.
        assert_eq!(v.input_words(0)[0] & 0xff, 0b10101010);
        assert_eq!(v.input_words(1)[0] & 0xff, 0b11001100);
        assert_eq!(v.input_words(2)[0] & 0xff, 0b11110000);
    }

    #[test]
    fn random_is_reproducible_and_seed_sensitive() {
        let a = VectorSet::random(5, 128, 7);
        let b = VectorSet::random(5, 128, 7);
        let c = VectorSet::random(5, 128, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_rounds_up_to_word() {
        let v = VectorSet::random(3, 1, 0);
        assert_eq!(v.n_words(), 1);
        assert_eq!(v.n_vectors(), 64);
    }

    #[test]
    fn from_single_replays_a_witness() {
        let v = VectorSet::from_single(&[true, false, true]);
        assert_eq!(v.n_inputs(), 3);
        assert_eq!(v.n_words(), 1);
        for lane in [0usize, 17, 63] {
            assert!(v.bit(0, lane));
            assert!(!v.bit(1, lane));
            assert!(v.bit(2, lane));
        }
    }

    #[test]
    fn prefix_keeps_the_leading_vectors() {
        let full = VectorSet::random(4, 512, 11);
        let head = full.prefix(3);
        assert_eq!((head.n_inputs(), head.n_words()), (4, 3));
        for i in 0..4 {
            for v in 0..head.n_vectors() {
                assert_eq!(head.bit(i, v), full.bit(i, v), "input {i} vector {v}");
            }
        }
        // Asking for more words than the set has returns it whole.
        assert_eq!(full.prefix(64), full);
    }

    #[test]
    fn set_vector_writes_one_lane() {
        let mut v = VectorSet::zeros(3, 256);
        assert_eq!(v.n_words(), 4);
        v.set_vector(130, &[true, false, true]);
        v.set_vector(5, &[false, true, false]);
        for lane in 0..256 {
            let want = match lane {
                130 => [true, false, true],
                5 => [false, true, false],
                _ => [false; 3],
            };
            for (i, &bit) in want.iter().enumerate() {
                assert_eq!(v.bit(i, lane), bit, "input {i} lane {lane}");
            }
        }
        // Overwriting clears the bits the new assignment does not set.
        v.set_vector(130, &[false, false, true]);
        assert!(!v.bit(0, 130) && v.bit(2, 130));
    }

    #[test]
    fn zero_input_circuit_supported() {
        let v = VectorSet::random(0, 64, 0);
        assert_eq!(v.n_inputs(), 0);
        assert_eq!(v.n_words(), 1);
    }
}
