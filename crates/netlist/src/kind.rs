use std::fmt;

/// The logic function computed by a cell.
///
/// Variable-arity kinds (`And`, `Nand`, `Or`, `Nor`, `Xor`, `Xnor`) accept
/// two or more inputs; `Xor`/`Xnor` with more than two inputs compute parity
/// / its complement, matching the ISCAS `.bench` convention. The
/// complex-gate kinds mirror the and-or-invert / or-and-invert cells of
/// standard-cell libraries such as `mcnc.genlib`:
///
/// * `Aoi21(a, b, c) = !(a·b + c)`
/// * `Oai21(a, b, c) = !((a + b)·c)`
/// * `Aoi22(a, b, c, d) = !(a·b + c·d)`
/// * `Oai22(a, b, c, d) = !((a + b)·(c + d))`
///
/// # Example
///
/// ```
/// use netlist::GateKind;
///
/// assert!(GateKind::And.eval(&[true, true]));
/// assert!(!GateKind::Aoi21.eval(&[true, true, false]));
/// assert!(GateKind::Xor.is_commutative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no fanins).
    Input,
    /// Constant logic 0 (no fanins).
    Const0,
    /// Constant logic 1 (no fanins).
    Const1,
    /// Buffer: `y = a`.
    Buf,
    /// Inverter: `y = !a`.
    Not,
    /// n-ary conjunction.
    And,
    /// n-ary negated conjunction.
    Nand,
    /// n-ary disjunction.
    Or,
    /// n-ary negated disjunction.
    Nor,
    /// n-ary parity (XOR).
    Xor,
    /// n-ary negated parity (XNOR).
    Xnor,
    /// 3-input and-or-invert: `!(ab + c)`.
    Aoi21,
    /// 3-input or-and-invert: `!((a + b)c)`.
    Oai21,
    /// 4-input and-or-invert: `!(ab + cd)`.
    Aoi22,
    /// 4-input or-and-invert: `!((a + b)(c + d))`.
    Oai22,
}

/// Number of fanins a [`GateKind`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arity {
    /// Exactly this many fanins.
    Fixed(usize),
    /// This many fanins or more.
    AtLeast(usize),
}

impl Arity {
    /// Returns `true` if a fanin count satisfies this arity constraint.
    ///
    /// ```
    /// use netlist::Arity;
    /// assert!(Arity::AtLeast(2).accepts(5));
    /// assert!(!Arity::Fixed(3).accepts(2));
    /// ```
    #[must_use]
    pub fn accepts(self, n: usize) -> bool {
        match self {
            Arity::Fixed(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }
}

impl GateKind {
    /// All gate kinds, useful for exhaustive tests.
    pub const ALL: [GateKind; 15] = [
        GateKind::Input,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Aoi21,
        GateKind::Oai21,
        GateKind::Aoi22,
        GateKind::Oai22,
    ];

    /// Returns the arity constraint of this kind.
    #[must_use]
    pub fn arity(self) -> Arity {
        use GateKind::*;
        match self {
            Input | Const0 | Const1 => Arity::Fixed(0),
            Buf | Not => Arity::Fixed(1),
            And | Nand | Or | Nor | Xor | Xnor => Arity::AtLeast(2),
            Aoi21 | Oai21 => Arity::Fixed(3),
            Aoi22 | Oai22 => Arity::Fixed(4),
        }
    }

    /// Returns `true` if permuting the fanins never changes the function.
    ///
    /// The complex gates are only commutative within pin groups, so they
    /// report `false`.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        use GateKind::*;
        matches!(self, And | Nand | Or | Nor | Xor | Xnor)
    }

    /// Returns `true` for kinds with no fanins (inputs and constants).
    #[must_use]
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// Evaluates the gate function on boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` violates [`GateKind::arity`].
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(
            self.arity().accepts(inputs.len()),
            "{self} applied to {} inputs",
            inputs.len()
        );
        use GateKind::*;
        match self {
            Input => panic!("primary inputs have no defined function"),
            Const0 => false,
            Const1 => true,
            Buf => inputs[0],
            Not => !inputs[0],
            And => inputs.iter().all(|&v| v),
            Nand => !inputs.iter().all(|&v| v),
            Or => inputs.iter().any(|&v| v),
            Nor => !inputs.iter().any(|&v| v),
            Xor => inputs.iter().fold(false, |acc, &v| acc ^ v),
            Xnor => !inputs.iter().fold(false, |acc, &v| acc ^ v),
            Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
            Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
            Aoi22 => !((inputs[0] && inputs[1]) || (inputs[2] && inputs[3])),
            Oai22 => !((inputs[0] || inputs[1]) && (inputs[2] || inputs[3])),
        }
    }

    /// Evaluates the gate function bit-parallel on 64 vectors at once.
    ///
    /// Bit `i` of the result is the gate output for the assignment formed by
    /// bit `i` of every input word. This is the primitive the bit-parallel
    /// fault simulator of the paper's Section 4 is built on.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` violates [`GateKind::arity`].
    #[must_use]
    pub fn eval_words(self, inputs: &[u64]) -> u64 {
        assert!(
            self.arity().accepts(inputs.len()),
            "{self} applied to {} inputs",
            inputs.len()
        );
        use GateKind::*;
        match self {
            Input => panic!("primary inputs have no defined function"),
            Const0 => 0,
            Const1 => !0,
            Buf => inputs[0],
            Not => !inputs[0],
            And => inputs.iter().fold(!0u64, |acc, &v| acc & v),
            Nand => !inputs.iter().fold(!0u64, |acc, &v| acc & v),
            Or => inputs.iter().fold(0u64, |acc, &v| acc | v),
            Nor => !inputs.iter().fold(0u64, |acc, &v| acc | v),
            Xor => inputs.iter().fold(0u64, |acc, &v| acc ^ v),
            Xnor => !inputs.iter().fold(0u64, |acc, &v| acc ^ v),
            Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            Aoi22 => !((inputs[0] & inputs[1]) | (inputs[2] & inputs[3])),
            Oai22 => !((inputs[0] | inputs[1]) & (inputs[2] | inputs[3])),
        }
    }

    /// Evaluates the gate bit-parallel over whole word rows: word `w` of
    /// `out` is [`eval_words`](Self::eval_words) of word `w` of every
    /// input row. Only the first `out.len()` words of each input row are
    /// read.
    ///
    /// This is the gate step of every bit-parallel simulator: one call
    /// per gate instead of one per word. Variadic kinds fold across the
    /// rows, so parsed gates wider than any library cell work too.
    ///
    /// # Panics
    ///
    /// Panics if `ins.len()` violates [`GateKind::arity`], if an input
    /// row is shorter than `out`, or on [`GateKind::Input`].
    ///
    /// ```
    /// use netlist::GateKind;
    ///
    /// let (a, b) = ([0b1100u64, 1], [0b1010u64, 1]);
    /// let mut y = [0u64; 2];
    /// GateKind::Nand.eval_row(&[&a, &b], &mut y);
    /// assert_eq!(y, [!0b1000, !1]);
    /// ```
    pub fn eval_row(self, ins: &[&[u64]], out: &mut [u64]) {
        assert!(
            self.arity().accepts(ins.len()),
            "{self} applied to {} inputs",
            ins.len()
        );
        let n = out.len();
        use GateKind::*;
        match self {
            Input => panic!("primary inputs have no defined function"),
            Const0 => out.fill(0),
            Const1 => out.fill(!0),
            Buf => out.copy_from_slice(&ins[0][..n]),
            Not => {
                for (o, &a) in out.iter_mut().zip(&ins[0][..n]) {
                    *o = !a;
                }
            }
            And => fold_rows(ins, out, |a, b| a & b, 0),
            Nand => fold_rows(ins, out, |a, b| a & b, !0),
            Or => fold_rows(ins, out, |a, b| a | b, 0),
            Nor => fold_rows(ins, out, |a, b| a | b, !0),
            Xor => fold_rows(ins, out, |a, b| a ^ b, 0),
            Xnor => fold_rows(ins, out, |a, b| a ^ b, !0),
            Aoi21 => map3_rows(ins, out, |a, b, c| !((a & b) | c)),
            Oai21 => map3_rows(ins, out, |a, b, c| !((a | b) & c)),
            Aoi22 => map4_rows(ins, out, |a, b, c, d| !((a & b) | (c & d))),
            Oai22 => map4_rows(ins, out, |a, b, c, d| !((a | b) & (c | d))),
        }
    }

    /// Short upper-case mnemonic as used in `.bench` files where one exists.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use GateKind::*;
        match self {
            Input => "INPUT",
            Const0 => "CONST0",
            Const1 => "CONST1",
            Buf => "BUFF",
            Not => "NOT",
            And => "AND",
            Nand => "NAND",
            Or => "OR",
            Nor => "NOR",
            Xor => "XOR",
            Xnor => "XNOR",
            Aoi21 => "AOI21",
            Oai21 => "OAI21",
            Aoi22 => "AOI22",
            Oai22 => "OAI22",
        }
    }
}

/// `out = op(ins[0], ins[1], ...) ^ flip`, word by word: the first pass
/// combines two rows, each further row is one more pass, and the last
/// pass applies the output inversion.
fn fold_rows(ins: &[&[u64]], out: &mut [u64], op: impl Fn(u64, u64) -> u64, flip: u64) {
    let n = out.len();
    let [a, b, rest @ ..] = ins else {
        unreachable!("variadic kinds take two or more rows")
    };
    let last_flip = |k: usize| if k == rest.len() { flip } else { 0 };
    let f = last_flip(0);
    for ((o, &a), &b) in out.iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *o = op(a, b) ^ f;
    }
    for (k, row) in rest.iter().enumerate() {
        let f = last_flip(k + 1);
        for (o, &v) in out.iter_mut().zip(&row[..n]) {
            *o = op(*o, v) ^ f;
        }
    }
}

/// `out = f(ins[0], ins[1], ins[2])`, word by word.
fn map3_rows(ins: &[&[u64]], out: &mut [u64], f: impl Fn(u64, u64, u64) -> u64) {
    let n = out.len();
    let (a, b, c) = (&ins[0][..n], &ins[1][..n], &ins[2][..n]);
    for (((o, &a), &b), &c) in out.iter_mut().zip(a).zip(b).zip(c) {
        *o = f(a, b, c);
    }
}

/// `out = f(ins[0], ins[1], ins[2], ins[3])`, word by word.
fn map4_rows(ins: &[&[u64]], out: &mut [u64], f: impl Fn(u64, u64, u64, u64) -> u64) {
    let n = out.len();
    let (a, b, c, d) = (&ins[0][..n], &ins[1][..n], &ins[2][..n], &ins[3][..n]);
    for ((((o, &a), &b), &c), &d) in out.iter_mut().zip(a).zip(b).zip(c).zip(d) {
        *o = f(a, b, c, d);
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively cross-checks `eval_words` against `eval` for every kind
    /// and every input combination at the kind's minimum arity.
    #[test]
    fn eval_words_matches_eval() {
        for kind in GateKind::ALL {
            if kind == GateKind::Input {
                continue;
            }
            let n = match kind.arity() {
                Arity::Fixed(k) => k,
                Arity::AtLeast(k) => k + 1, // exercise 3-input variadic case
            };
            for assignment in 0u32..(1 << n) {
                let bools: Vec<bool> = (0..n).map(|i| assignment >> i & 1 == 1).collect();
                let words: Vec<u64> = bools.iter().map(|&b| if b { !0 } else { 0 }).collect();
                let scalar = kind.eval(&bools);
                let wide = kind.eval_words(&words);
                assert_eq!(wide, if scalar { !0 } else { 0 }, "{kind} on {bools:?}");
            }
        }
    }

    /// `eval_row` is `eval_words` applied word by word, for every kind,
    /// every legal arity up to six and rows of 1, 2, 4 and 33 words.
    #[test]
    fn eval_row_matches_eval_words_per_word() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for kind in GateKind::ALL {
            if kind == GateKind::Input {
                continue;
            }
            let arities = match kind.arity() {
                Arity::Fixed(k) => k..=k,
                Arity::AtLeast(k) => k..=6,
            };
            for n_ins in arities {
                for width in [1usize, 2, 4, 33] {
                    // One word longer than the output: the tail must be ignored.
                    let rows: Vec<Vec<u64>> = (0..n_ins)
                        .map(|_| (0..=width).map(|_| rng.gen()).collect())
                        .collect();
                    let ins: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
                    let mut out = vec![rng.gen::<u64>(); width];
                    kind.eval_row(&ins, &mut out);
                    for (w, &got) in out.iter().enumerate() {
                        let words: Vec<u64> = rows.iter().map(|r| r[w]).collect();
                        assert_eq!(
                            got,
                            kind.eval_words(&words),
                            "{kind} over {n_ins} rows of {width} words, word {w}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "applied to")]
    fn eval_row_rejects_bad_arity() {
        GateKind::Aoi21.eval_row(&[&[0], &[0]], &mut [0]);
    }

    #[test]
    #[should_panic]
    fn eval_row_rejects_short_rows() {
        GateKind::And.eval_row(&[&[0, 0], &[0]], &mut [0, 0]);
    }

    #[test]
    fn variadic_parity() {
        // 5-input XOR is parity.
        for assignment in 0u32..32 {
            let bools: Vec<bool> = (0..5).map(|i| assignment >> i & 1 == 1).collect();
            assert_eq!(GateKind::Xor.eval(&bools), assignment.count_ones() % 2 == 1);
            assert_eq!(
                GateKind::Xnor.eval(&bools),
                assignment.count_ones() % 2 == 0
            );
        }
    }

    #[test]
    fn complex_gates_truth_tables() {
        // AOI21 = !(ab + c)
        assert!(GateKind::Aoi21.eval(&[false, false, false]));
        assert!(!GateKind::Aoi21.eval(&[true, true, false]));
        assert!(!GateKind::Aoi21.eval(&[false, false, true]));
        // OAI21 = !((a+b)c)
        assert!(GateKind::Oai21.eval(&[true, false, false]));
        assert!(!GateKind::Oai21.eval(&[true, false, true]));
        // AOI22 = !(ab + cd)
        assert!(GateKind::Aoi22.eval(&[true, false, false, true]));
        assert!(!GateKind::Aoi22.eval(&[true, true, false, false]));
        // OAI22 = !((a+b)(c+d))
        assert!(GateKind::Oai22.eval(&[false, false, true, true]));
        assert!(!GateKind::Oai22.eval(&[true, false, false, true]));
    }

    #[test]
    fn arity_constraints() {
        assert!(GateKind::Not.arity().accepts(1));
        assert!(!GateKind::Not.arity().accepts(2));
        assert!(GateKind::And.arity().accepts(8));
        assert!(!GateKind::And.arity().accepts(1));
        assert!(GateKind::Aoi22.arity().accepts(4));
        assert!(GateKind::Input.arity().accepts(0));
    }

    #[test]
    #[should_panic(expected = "applied to")]
    fn eval_rejects_bad_arity() {
        let _ = GateKind::Not.eval(&[true, false]);
    }

    #[test]
    fn commutativity_flags() {
        assert!(GateKind::And.is_commutative());
        assert!(GateKind::Nor.is_commutative());
        assert!(!GateKind::Aoi21.is_commutative());
        assert!(!GateKind::Buf.is_commutative());
    }
}
