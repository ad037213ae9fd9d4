use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable's index (dense, starting at 0).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a variable from an index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Var(u32::try_from(index).expect("variable index overflows u32"))
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, packed into one word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `v`.
    #[must_use]
    pub fn pos(v: Var) -> Self {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[must_use]
    pub fn neg(v: Var) -> Self {
        Lit(v.0 << 1 | 1)
    }

    /// A literal with an explicit sign: `with_sign(v, true)` is positive.
    #[must_use]
    pub fn with_sign(v: Var, positive: bool) -> Self {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[must_use]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for positive literals.
    #[must_use]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The dense code of the literal (used to index watch lists).
    #[must_use]
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing() {
        let v = Var::from_index(5);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_pos());
        assert!(!n.is_pos());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::with_sign(v, true), p);
        assert_eq!(Lit::with_sign(v, false), n);
        assert_ne!(p.code(), n.code());
    }

    #[test]
    fn display_forms() {
        let v = Var::from_index(3);
        assert_eq!(Lit::pos(v).to_string(), "x3");
        assert_eq!(Lit::neg(v).to_string(), "!x3");
    }
}
