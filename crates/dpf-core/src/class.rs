//! NAS-style parameterized problem classes.
//!
//! The original suite ships fixed problem sizes; modern parameterized
//! suites (NAS, HPCChallenge) instead describe a *class* — S, W, A, B, C
//! — and derive every benchmark's shapes from it. This module is the
//! class descriptor: a five-step ladder with two scaling rules that
//! shape-derivation code composes per axis.
//!
//! * [`ProblemClass::pow2`] doubles per class step (`base << index`).
//!   Use it for axes that must stay powers of two (FFT lengths, PCR
//!   system sizes, butterfly grids) or that should grow geometrically.
//! * [`ProblemClass::linear`] grows by `base` per class step
//!   (`base * (index + 1)`). Use it for multi-dimensional grid edges so
//!   total memory grows polynomially rather than exponentially, and for
//!   iteration/step counts.
//!
//! Class S has index 0, so both rules are the identity there: a class-S
//! run solves each benchmark at its base shape. That anchor is what lets
//! golden (byte-compared) campaigns run at class S while W/A/B/C scale
//! the same shapes up deterministically.

/// A problem-class descriptor (S smallest, C largest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProblemClass {
    /// Sample class: every benchmark at its base shape (index 0).
    S,
    /// Workstation class.
    W,
    /// Class A.
    A,
    /// Class B.
    B,
    /// Class C.
    C,
}

impl ProblemClass {
    /// All classes, smallest first.
    pub const ALL: [ProblemClass; 5] = [
        ProblemClass::S,
        ProblemClass::W,
        ProblemClass::A,
        ProblemClass::B,
        ProblemClass::C,
    ];

    /// Position on the class ladder: S=0, W=1, A=2, B=3, C=4.
    pub fn index(self) -> usize {
        match self {
            ProblemClass::S => 0,
            ProblemClass::W => 1,
            ProblemClass::A => 2,
            ProblemClass::B => 3,
            ProblemClass::C => 4,
        }
    }

    /// The class letter.
    pub fn name(self) -> &'static str {
        match self {
            ProblemClass::S => "S",
            ProblemClass::W => "W",
            ProblemClass::A => "A",
            ProblemClass::B => "B",
            ProblemClass::C => "C",
        }
    }

    /// Geometric scaling: `base` doubled once per class step. Preserves
    /// power-of-two-ness, so it is safe for FFT/PCR/butterfly axes.
    pub fn pow2(self, base: usize) -> usize {
        base << self.index()
    }

    /// Linear scaling: `base` grown by one `base` per class step. The
    /// right rule for grid edges of multi-dimensional problems and for
    /// iteration counts.
    pub fn linear(self, base: usize) -> usize {
        base * (self.index() + 1)
    }
}

impl std::fmt::Display for ProblemClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ProblemClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "S" | "s" => Ok(ProblemClass::S),
            "W" | "w" => Ok(ProblemClass::W),
            "A" | "a" => Ok(ProblemClass::A),
            "B" | "b" => Ok(ProblemClass::B),
            "C" | "c" => Ok(ProblemClass::C),
            other => Err(format!("unknown problem class {other:?} (want S|W|A|B|C)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_s_is_the_identity() {
        for base in [1usize, 7, 64, 1 << 10] {
            assert_eq!(ProblemClass::S.pow2(base), base);
            assert_eq!(ProblemClass::S.linear(base), base);
        }
    }

    #[test]
    fn scaling_rules_are_strictly_monotone() {
        for pair in ProblemClass::ALL.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(pair[0].pow2(16) < pair[1].pow2(16));
            assert!(pair[0].linear(16) < pair[1].linear(16));
        }
    }

    #[test]
    fn pow2_preserves_powers_of_two() {
        for c in ProblemClass::ALL {
            assert!(c.pow2(256).is_power_of_two());
        }
    }

    #[test]
    fn names_round_trip() {
        for c in ProblemClass::ALL {
            assert_eq!(c.name().parse::<ProblemClass>().unwrap(), c);
            assert_eq!(c.name().to_lowercase().parse::<ProblemClass>().unwrap(), c);
        }
        assert!("X".parse::<ProblemClass>().is_err());
    }
}
