//! `dpf-lint` — project-specific static analysis for the DPF suite.
//!
//! The paper's value is its *precise conventions* (§1.5 FLOP weights,
//! centralized busy/elapsed metering, per-benchmark communication
//! inventories) and the repo adds equally precise code-level invariants
//! (NaN-safe verify folds, zero-allocation `_into`/`_exec` hot paths,
//! LinkMeter-metered transport sends).
//! This crate makes those invariants machine-checked: a hand-rolled
//! lexer ([`lex`]) feeds a rule engine ([`rules`]) that walks every
//! `crates/*/src/**.rs` file and emits structured diagnostics.
//!
//! Diagnostics are suppressible inline:
//!
//! ```text
//! // dpf-lint: allow(<rule>, reason = "why this site is exempt")
//! // dpf-lint: allow-file(<rule>, reason = "why this whole file is exempt")
//! ```
//!
//! An `allow` pragma covers its own line and the line directly below
//! it; `allow-file` covers the whole file. A pragma with no reason is
//! itself a diagnostic (`bad-pragma`), and a pragma that suppresses
//! nothing is flagged (`unused-pragma`) so allows cannot silently
//! outlive the code they excused.

#![warn(missing_docs)]

pub mod ast;
pub mod flow;
pub mod lex;
pub mod rules;
pub mod taint;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lex::{lex, Comment, Token};

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Discipline drift: fails CI only under `--deny warnings`.
    Warning,
    /// Convention or correctness violation: always fails CI.
    Error,
}

impl Severity {
    /// Lowercase name, as printed in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One structured finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Path relative to the repo root (always `/`-separated).
    pub file: String,
    /// 1-based line number (0 = whole-file / whole-tree finding).
    pub line: u32,
    /// Stable rule identifier (`nan-unsafe-fold`, ...).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// Whether a `dpf-lint: allow` pragma may suppress it. (An `unsafe`
    /// block without a `// SAFETY:` comment, for example, may not be
    /// waved through by pragma alone.)
    pub suppressible: bool,
}

impl Diagnostic {
    /// Construct a suppressible diagnostic.
    pub fn new(
        file: &str,
        line: u32,
        rule: &'static str,
        severity: Severity,
        message: String,
        suggestion: String,
    ) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            severity,
            message,
            suggestion,
            suppressible: true,
        }
    }
}

/// A function span discovered by brace matching: rules use it to scope
/// checks like "no allocation inside `*_into`" or "`.max(` inside a
/// function returning `Verify`".
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Whether `-> Verify` (or `-> ... Verify ...`) appears in its
    /// signature's return type.
    pub returns_verify: bool,
}

/// One lexed source file plus the derived context the rules need.
pub struct SourceFile {
    /// Repo-relative `/`-separated path.
    pub path: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Comment channel.
    pub comments: Vec<Comment>,
    /// Innermost named function enclosing each token (index into
    /// `fns`), parallel to `tokens`.
    pub enclosing: Vec<Option<usize>>,
    /// All named functions, in source order.
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lex and index one file.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let (tokens, comments) = lex(src);
        let (enclosing, fns) = index_fns(&tokens);
        SourceFile {
            path: path.to_string(),
            tokens,
            comments,
            enclosing,
            fns,
        }
    }

    /// The innermost named function enclosing token `i`, if any.
    pub fn fn_at(&self, i: usize) -> Option<&FnSpan> {
        self.enclosing
            .get(i)
            .copied()
            .flatten()
            .map(|k| &self.fns[k])
    }
}

/// Walk the token stream once, matching braces, and label every token
/// with its innermost enclosing named `fn`. Closures have no `fn`
/// keyword, so their bodies inherit the enclosing function — exactly
/// what the hot-path rules want.
fn index_fns(tokens: &[Token]) -> (Vec<Option<usize>>, Vec<FnSpan>) {
    use lex::Tok::{Ident, Punct};
    let mut fns: Vec<FnSpan> = Vec::new();
    let mut enclosing: Vec<Option<usize>> = vec![None; tokens.len()];
    // Stack of (fn index, brace depth its body opened at); parallel
    // plain-brace depth counter.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    // A `fn name` whose body `{` has not opened yet: (index, saw_arrow).
    let mut pending: Option<usize> = None;
    let mut pending_arrow = false;
    let mut i = 0usize;
    while i < tokens.len() {
        match &tokens[i].tok {
            Ident(kw) if kw == "fn" => {
                if let Some(Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                    fns.push(FnSpan {
                        name: name.clone(),
                        returns_verify: false,
                    });
                    pending = Some(fns.len() - 1);
                    pending_arrow = false;
                    i += 2;
                    continue;
                }
            }
            Punct('-') if pending.is_some() => {
                if let Some(Punct('>')) = tokens.get(i + 1).map(|t| &t.tok) {
                    pending_arrow = true;
                }
            }
            Ident(id) if pending.is_some() && pending_arrow && id == "Verify" => {
                fns[pending.unwrap()].returns_verify = true;
            }
            Punct(';') if pending.is_some() => {
                // Trait method / extern declaration without a body.
                pending = None;
            }
            Punct('{') => {
                if let Some(k) = pending.take() {
                    stack.push((k, depth));
                }
                depth += 1;
            }
            Punct('}') => {
                depth = depth.saturating_sub(1);
                if let Some(&(_, d)) = stack.last() {
                    if d == depth {
                        stack.pop();
                    }
                }
            }
            _ => {}
        }
        enclosing[i] = stack.last().map(|&(k, _)| k);
        i += 1;
    }
    (enclosing, fns)
}

// ------------------------------------------------------------- pragmas

#[derive(Debug)]
struct Pragma {
    line: u32,
    rule: String,
    file_wide: bool,
    used: std::cell::Cell<bool>,
}

/// Parse `dpf-lint:` pragmas out of the comment channel. Malformed
/// pragmas become `bad-pragma` diagnostics.
fn parse_pragmas(file: &SourceFile) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let mut pragmas = Vec::new();
    let mut diags = Vec::new();
    for c in &file.comments {
        let Some(rest) = c.text.trim().strip_prefix("dpf-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let (file_wide, body) = if let Some(b) = rest.strip_prefix("allow-file") {
            (true, b)
        } else if let Some(b) = rest.strip_prefix("allow") {
            (false, b)
        } else {
            diags.push(Diagnostic::new(
                &file.path,
                c.line,
                "bad-pragma",
                Severity::Error,
                format!("unrecognized dpf-lint pragma `{}`", c.text.trim()),
                "use `dpf-lint: allow(<rule>, reason = \"...\")` or allow-file".into(),
            ));
            continue;
        };
        let body = body.trim();
        let parsed = body
            .strip_prefix('(')
            .and_then(|b| b.strip_suffix(')'))
            .and_then(|inner| {
                let (rule, reason) = inner.split_once(',')?;
                let reason = reason.trim().strip_prefix("reason")?.trim_start();
                let reason = reason.strip_prefix('=')?.trim();
                let reason = reason.strip_prefix('"')?.strip_suffix('"')?;
                if reason.trim().is_empty() {
                    None
                } else {
                    Some(rule.trim().to_string())
                }
            });
        match parsed {
            Some(rule) => pragmas.push(Pragma {
                line: c.line,
                rule,
                file_wide,
                used: std::cell::Cell::new(false),
            }),
            None => diags.push(Diagnostic::new(
                &file.path,
                c.line,
                "bad-pragma",
                Severity::Error,
                format!("malformed dpf-lint pragma `{}`", c.text.trim()),
                "write `dpf-lint: allow(<rule>, reason = \"non-empty why\")`".into(),
            )),
        }
    }
    (pragmas, diags)
}

// -------------------------------------------------------------- driver

/// Lint one file's source text. Returns the surviving diagnostics
/// (pragma-suppressed ones removed, `bad-pragma`/`unused-pragma` added).
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(path, src);
    let (pragmas, mut diags) = parse_pragmas(&file);
    for rule in rules::FILE_RULES {
        diags.extend((rule.check)(&file));
    }
    let mut kept: Vec<Diagnostic> = Vec::new();
    for d in diags {
        let hit = pragmas.iter().find(|p| {
            p.rule == d.rule && (p.file_wide || p.line == d.line || p.line + 1 == d.line)
        });
        match hit {
            Some(p) if d.suppressible => p.used.set(true),
            Some(p) => {
                // Pragma present but the diagnostic refuses suppression
                // (e.g. `unsafe` without a SAFETY comment): the pragma
                // still counts as used so only the real problem shows.
                p.used.set(true);
                kept.push(d);
            }
            None => kept.push(d),
        }
    }
    for p in &pragmas {
        if !p.used.get() {
            kept.push(Diagnostic::new(
                &file.path,
                p.line,
                "unused-pragma",
                Severity::Warning,
                format!("allow pragma for `{}` suppresses nothing", p.rule),
                "remove the pragma (the code it excused is gone)".into(),
            ));
        }
    }
    kept
}

/// Collect every `crates/*/src/**.rs` file under `root`, sorted for
/// deterministic output.
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint the whole tree rooted at `root` (the repo checkout). Runs the
/// per-file rules on every `crates/*/src/**.rs`, then the tree-wide
/// `comm-inventory` rule. Output is sorted by `(file, line, rule)` so two
/// runs over the same tree are byte-identical.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut registry: Option<(String, String)> = None;
    let mut tables: Option<(String, String)> = None;
    for path in source_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        if rel.ends_with("dpf-suite/src/registry.rs") {
            registry = Some((rel.clone(), src.clone()));
        } else if rel.ends_with("dpf-suite/src/tables.rs") {
            tables = Some((rel.clone(), src.clone()));
        }
        diags.extend(lint_source(&rel, &src));
    }
    diags.extend(rules::check_comm_inventory(
        registry.as_ref().map(|(p, s)| (p.as_str(), s.as_str())),
        tables.as_ref().map(|(p, s)| (p.as_str(), s.as_str())),
    ));
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(diags)
}

// ----------------------------------------------------------- rendering

/// Render diagnostics as human-readable text, one line each.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    for d in diags {
        let _ = writeln!(
            s,
            "{}:{}: {}[{}] {} — {}",
            d.file,
            d.line,
            d.severity.name(),
            d.rule,
            d.message,
            d.suggestion
        );
    }
    let (e, w) = count(diags);
    let _ = writeln!(s, "dpf-lint: {e} error(s), {w} warning(s)");
    s
}

/// Render diagnostics as JSON with a stable field order, suitable for
/// machine consumption and byte-for-byte comparison across runs.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("{\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"severity\": {}, \"message\": {}, \"suggestion\": {}}}",
            json_str(&d.file),
            d.line,
            json_str(d.rule),
            json_str(d.severity.name()),
            json_str(&d.message),
            json_str(&d.suggestion)
        );
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    let (e, w) = count(diags);
    let _ = write!(
        s,
        "],\n  \"summary\": {{\"errors\": {e}, \"warnings\": {w}}}\n}}\n"
    );
    s
}

fn count(diags: &[Diagnostic]) -> (usize, usize) {
    let e = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    (e, diags.len() - e)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Did this diagnostic set fail the run? Errors always do; warnings do
/// under `deny_warnings`.
pub fn is_failing(diags: &[Diagnostic], deny_warnings: bool) -> bool {
    diags
        .iter()
        .any(|d| d.severity == Severity::Error || deny_warnings)
        && !diags.is_empty()
}

/// Locate the repo root: the nearest ancestor of `start` that contains
/// `crates/dpf-core/src`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(p) = cur {
        if p.join("crates/dpf-core/src").is_dir() {
            return Some(p.to_path_buf());
        }
        cur = p.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_nest_and_detect_verify_return() {
        let src = r#"
pub fn outer_into(x: usize) -> Verify {
    let c = |y: usize| y.max(1);
    fn inner(z: usize) -> usize { z }
    c(x)
}
fn plain() {}
"#;
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.fns.len(), 3);
        assert_eq!(f.fns[0].name, "outer_into");
        assert!(f.fns[0].returns_verify);
        assert!(!f.fns[2].returns_verify);
        // The closure body belongs to outer_into; inner's body to inner.
        let max_at = f
            .tokens
            .iter()
            .position(|t| t.tok == lex::Tok::Ident("max".into()))
            .unwrap();
        assert_eq!(f.fn_at(max_at).unwrap().name, "outer_into");
    }

    #[test]
    fn pragma_suppresses_same_and_next_line_only() {
        let src = "
fn check_verify() -> Verify {
    // dpf-lint: allow(nan-unsafe-fold, reason = \"documented hole\")
    let a = x.max(y);
    let b = x.max(y);
    Verify::NotApplicable
}
";
        let diags = lint_source("t.rs", src);
        let nan: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "nan-unsafe-fold")
            .collect();
        assert_eq!(nan.len(), 1, "{diags:?}");
        assert_eq!(nan[0].line, 5);
    }

    #[test]
    fn malformed_and_unused_pragmas_are_flagged() {
        let src = "// dpf-lint: allow(nan-unsafe-fold)\nfn f() {}\n";
        let diags = lint_source("t.rs", src);
        assert!(diags.iter().any(|d| d.rule == "bad-pragma"));
        let src2 = "// dpf-lint: allow(untimed-clock, reason = \"stale\")\nfn f() {}\n";
        let diags2 = lint_source("t.rs", src2);
        assert!(diags2.iter().any(|d| d.rule == "unused-pragma"));
    }

    #[test]
    fn json_escapes_and_orders_fields() {
        let d = vec![Diagnostic::new(
            "a.rs",
            3,
            "nan-unsafe-fold",
            Severity::Error,
            "say \"hi\"\n".into(),
            "fix".into(),
        )];
        let j = render_json(&d);
        assert!(j.contains("\\\"hi\\\"\\n"));
        assert!(j.contains("\"summary\": {\"errors\": 1, \"warnings\": 0}"));
    }
}
