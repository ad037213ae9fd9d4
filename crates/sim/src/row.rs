//! The gate step shared by every bit-parallel simulator: gather a gate's
//! fanin rows and evaluate the gate over them in one
//! [`GateKind::eval_row`] call.

use netlist::GateKind;

/// Evaluates `kind` over `fanin_rows` into `out` with
/// [`GateKind::eval_row`].
///
/// Up to four rows (every library cell) are gathered in a stack array;
/// only wider parsed gates collect theirs in a `Vec`.
///
/// # Panics
///
/// As [`GateKind::eval_row`].
pub fn eval_gate_row<'r>(
    kind: GateKind,
    fanin_rows: impl ExactSizeIterator<Item = &'r [u64]>,
    out: &mut [u64],
) {
    let n = fanin_rows.len();
    if n <= 4 {
        let mut rows: [&[u64]; 4] = [&[]; 4];
        for (slot, row) in rows.iter_mut().zip(fanin_rows) {
            *slot = row;
        }
        kind.eval_row(&rows[..n], out);
    } else {
        let rows: Vec<&[u64]> = fanin_rows.collect();
        kind.eval_row(&rows, out);
    }
}

/// Every row of a row-major buffer except the one [`split_row`] hands
/// out for writing.
#[derive(Debug, Clone, Copy)]
pub struct OtherRows<'v> {
    before: &'v [u64],
    after: &'v [u64],
    at: usize,
    stride: usize,
}

impl<'v> OtherRows<'v> {
    /// The `stride` words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is the row held out for writing or lies past the
    /// buffer.
    #[must_use]
    pub fn row(&self, r: usize) -> &'v [u64] {
        let (rows, i) = if r < self.at {
            (self.before, r)
        } else {
            assert_ne!(r, self.at, "row {r} is held out for writing");
            (self.after, r - self.at - 1)
        };
        &rows[i * self.stride..(i + 1) * self.stride]
    }
}

/// Splits `values`, rows of `stride` words, into row `at` (writable)
/// and every other row (readable), so a gate's row is written while its
/// fanin rows are read from the same buffer without a copy.
///
/// # Panics
///
/// Panics if row `at` lies past the buffer.
pub fn split_row(values: &mut [u64], stride: usize, at: usize) -> (&mut [u64], OtherRows<'_>) {
    let (before, rest) = values.split_at_mut(at * stride);
    let (row, after) = rest.split_at_mut(stride);
    let others = OtherRows {
        before,
        after,
        at,
        stride,
    };
    (row, others)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_row_reads_every_other_row() {
        let mut values: Vec<u64> = (0..12).collect();
        let (row, others) = split_row(&mut values, 3, 2);
        assert_eq!(row, [6, 7, 8]);
        assert_eq!(others.row(0), [0, 1, 2]);
        assert_eq!(others.row(1), [3, 4, 5]);
        assert_eq!(others.row(3), [9, 10, 11]);
        row.fill(0);
        assert_eq!(values[6..9], [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "held out")]
    fn the_held_out_row_is_not_readable() {
        let mut values = vec![0u64; 8];
        let (_, others) = split_row(&mut values, 2, 1);
        let _ = others.row(1);
    }

    #[test]
    fn wide_gates_gather_past_the_stack_array() {
        let rows: Vec<[u64; 2]> = (0..6u64).map(|i| [1 << i, !0]).collect();
        let mut out = [0u64; 2];
        eval_gate_row(GateKind::Or, rows.iter().map(|r| &r[..]), &mut out);
        assert_eq!(out, [0b11_1111, !0]);
        eval_gate_row(GateKind::Nand, rows[..4].iter().map(|r| &r[..]), &mut out);
        assert_eq!(out, [!0, 0]);
    }
}
