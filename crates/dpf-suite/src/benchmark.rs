//! The benchmark registry types.

use dpf_core::{CommPattern, Ctx, LocalAccess, ProblemClass, Verify};

/// The three benchmark groups of the suite (paper §1.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// Library functions for communication (paper §2).
    Communication,
    /// Library functions for linear algebra (paper §3).
    LinearAlgebra,
    /// Applications-oriented codes (paper §4).
    Application,
}

impl std::fmt::Display for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Group::Communication => "communication",
            Group::LinearAlgebra => "linear algebra",
            Group::Application => "application",
        })
    }
}

/// The code-version axis of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Version {
    /// "Typical user code" — idiomatic data-parallel spelling.
    Basic,
    /// Hand-optimized source in the same language.
    Optimized,
    /// Source-language library routines.
    Library,
    /// CMSSL (scientific library) calls.
    Cmssl,
    /// Node-level C/DPEAC kernels.
    CDpeac,
}

impl Version {
    /// Table 1 column order.
    pub const ALL: [Version; 5] = [
        Version::Basic,
        Version::Optimized,
        Version::Library,
        Version::Cmssl,
        Version::CDpeac,
    ];

    /// Table 1 column header.
    pub fn name(self) -> &'static str {
        match self {
            Version::Basic => "basic",
            Version::Optimized => "optimized",
            Version::Library => "library",
            Version::Cmssl => "CMSSL",
            Version::CDpeac => "C/DPEAC",
        }
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The problem size a runner is asked to solve: a NAS-style
/// [`ProblemClass`]. Every runner derives its shapes from the class with
/// [`ProblemClass::pow2`] and [`ProblemClass::linear`].
///
/// The class is the only size axis. It stays wrapped in this one-variant
/// enum so the runner signature `fn(&Ctx, Size) -> RunOutput` and the
/// `Size::Class(..)` spelling that the suite benchmark (`suitebench/`)
/// builds keep compiling unchanged. Runners unpack it with
/// `let Size::Class(c) = size;`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Size {
    /// Parameterized problem class (S smallest, then W/A/B/C scale up).
    Class(ProblemClass),
}

impl Size {
    /// The class letter.
    pub fn label(self) -> &'static str {
        let Size::Class(c) = self;
        c.name()
    }
}

impl std::fmt::Display for Size {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Size {
    type Err = String;

    /// Parses a class letter; `small` is accepted as an alias for class S.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let class = if s == "small" { "S" } else { s };
        class
            .parse::<ProblemClass>()
            .map(Size::Class)
            .map_err(|_| format!("unknown size {s:?} (want small|S|W|A|B|C)"))
    }
}

/// What a benchmark runner reports back (the harness adds the timing and
/// instrumentation snapshot around it).
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Human-readable problem description, e.g. `"n=1024, dtype=d"`.
    pub problem: String,
    /// Correctness outcome.
    pub verify: Verify,
    /// Problem size in data points (for FLOPs-per-point, §1.5 attr. 5).
    pub points: u64,
    /// Main-loop iterations executed (for per-iteration normalization).
    pub iterations: u64,
}

/// A runnable code version.
pub struct Variant {
    /// Version label.
    pub version: Version,
    /// The runner.
    pub run: fn(&Ctx, Size) -> RunOutput,
}

/// One registry entry: static characterization (the paper's tables) plus
/// the runnable variants.
pub struct BenchEntry {
    /// Benchmark name as in Table 1.
    pub name: &'static str,
    /// Which group it belongs to.
    pub group: Group,
    /// Table 1 row: the versions the original suite shipped.
    pub paper_versions: &'static [Version],
    /// Data representation / layout strings (Tables 2 and 5).
    pub layouts: &'static [&'static str],
    /// Local-memory-access class (Tables 4 and 6).
    pub local_access: LocalAccess,
    /// Dominating communication patterns (Tables 3 and 7).
    pub patterns: &'static [CommPattern],
    /// Implementation technique notes (Table 8), `(pattern, technique)`.
    pub techniques: &'static [(&'static str, &'static str)],
    /// The paper's FLOP-count formula (Table 4/6), as text.
    pub flops_formula: &'static str,
    /// The paper's memory formula, as text.
    pub memory_formula: &'static str,
    /// The paper's per-iteration communication, as text.
    pub comm_formula: &'static str,
    /// Runnable versions in this reproduction (Basic always first).
    pub variants: &'static [Variant],
}

impl BenchEntry {
    /// The basic-version runner.
    pub fn run_basic(&self, ctx: &Ctx, size: Size) -> RunOutput {
        (self.variants[0].run)(ctx, size)
    }

    /// Find a runnable variant by version.
    pub fn variant(&self, version: Version) -> Option<&Variant> {
        self.variants.iter().find(|v| v.version == version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_order_matches_table1_columns() {
        let names: Vec<&str> = Version::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec!["basic", "optimized", "library", "CMSSL", "C/DPEAC"]
        );
    }

    #[test]
    fn sizes_parse_and_label_round_trip() {
        for s in ["S", "W", "A", "B", "C"] {
            let size: Size = s.parse().unwrap();
            assert_eq!(size.label(), s, "label must round-trip");
            assert_eq!(size.to_string(), s);
        }
        assert_eq!("s".parse::<Size>().unwrap(), Size::Class(ProblemClass::S));
        assert_eq!(
            "small".parse::<Size>().unwrap(),
            Size::Class(ProblemClass::S)
        );
        for retired in ["medium", "large", "huge"] {
            assert!(retired.parse::<Size>().is_err(), "{retired} must not parse");
        }
    }

    #[test]
    fn groups_display_like_the_paper_sections() {
        assert_eq!(Group::Communication.to_string(), "communication");
        assert_eq!(Group::LinearAlgebra.to_string(), "linear algebra");
        assert_eq!(Group::Application.to_string(), "application");
    }
}
