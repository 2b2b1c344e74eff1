//! The rule catalog. Every rule is a pure function over one lexed
//! [`SourceFile`] (plus the tree-wide `comm-inventory` pass), so rules
//! compose and test in isolation.
//!
//! | rule | severity | invariant |
//! |------|----------|-----------|
//! | `nan-unsafe-fold`  | error   | verify/reduction folds must use `dpf_core::nan_max`/`nan_min` (IEEE `max` drops NaN) |
//! | `untimed-clock`    | warning | `Instant::now()` only in the sanctioned metrics/harness modules (§1.5 busy/elapsed stays centralized) |
//! | `hot-path-alloc`   | warning | no `Vec::new`/`vec![`/`.collect()`/`.to_vec()` inside `*_into`/`*_exec` hot paths (PR 1 buffer-reuse discipline) |
//! | `hot-path-clone`   | warning | no `.clone()` of a `DistArray` parameter inside `*_into`/`*_exec` hot paths (a clone is a whole-block copy) |
//! | `metered-send`     | error   | raw channel sends in `spmd.rs` only inside the LinkMeter/envelope path (`Router::send` → `transmit`/`send_ctl`/`send_recovery`) |
//! | `flop-conventions` | error   | the §1.5 FLOP-weight constants match the paper's table (add/mul 1, div/sqrt 4, log/trig 8) |
//! | `comm-inventory`   | error   | registry `patterns` fields agree with the §1.5 `COMM_INVENTORY` in dpf-suite's tables.rs (tree-wide) |
//! | `unsafe-forbid`    | error   | the repo is `unsafe`-free; any new `unsafe` needs a `// SAFETY:` comment *and* an allow pragma |
//! | `atomic-artifact`  | warning | no direct `fs::write`/`File::create` outside the atomic artifact writer (torn files break `--resume` and `dpf tables --campaign`) |
//! | `collective-parity`| error   | a collective (barrier, `*_exec`, recovery rendezvous) under a rank-dependent branch needs a matching call on every sibling path (static SPMD deadlock) |
//! | `lock-order`       | error   | every lock pair is acquired in one consistent order across a file's functions (guard lifetimes per edition 2021) |
//! | `determinism-taint`| error   | hash iteration / wall clock / thread id / unordered FP reduce must not flow into Verify, instrumentation or serialized artifacts |
//! | `registry-coverage`| error   | every `paper_versions` entry in the benchmark registry has a runnable variant or a pragma documenting the gap |

use crate::lex::Tok;
use crate::{Diagnostic, Severity, SourceFile};
use std::collections::BTreeMap;

/// One registered per-file rule.
pub struct Rule {
    /// Stable identifier used in diagnostics and pragmas.
    pub id: &'static str,
    /// One-line description for `--help` / docs.
    pub summary: &'static str,
    /// The check itself.
    pub check: fn(&SourceFile) -> Vec<Diagnostic>,
}

/// All per-file rules, in catalog order.
pub const FILE_RULES: &[Rule] = &[
    Rule {
        id: "nan-unsafe-fold",
        summary: "verify/reduction folds must use dpf_core::nan_max / nan_min",
        check: nan_unsafe_fold,
    },
    Rule {
        id: "untimed-clock",
        summary: "Instant::now() only in the sanctioned metrics/harness modules",
        check: untimed_clock,
    },
    Rule {
        id: "hot-path-alloc",
        summary: "no allocation inside *_into / *_exec hot paths",
        check: hot_path_alloc,
    },
    Rule {
        id: "hot-path-clone",
        summary: "no DistArray clones inside *_into / *_exec hot paths",
        check: hot_path_clone,
    },
    Rule {
        id: "metered-send",
        summary: "spmd.rs channel sends go through the LinkMeter/envelope path",
        check: metered_send,
    },
    Rule {
        id: "flop-conventions",
        summary: "FLOP-weight constants match the paper's table",
        check: flop_conventions,
    },
    Rule {
        id: "unsafe-forbid",
        summary: "no unsafe without a SAFETY comment and an allow pragma",
        check: unsafe_forbid,
    },
    Rule {
        id: "atomic-artifact",
        summary: "file writes go through the atomic artifact writer",
        check: atomic_artifact,
    },
    Rule {
        id: "collective-parity",
        summary: "collectives under rank-dependent branches must have matching sibling calls",
        check: crate::flow::check_collective_parity,
    },
    Rule {
        id: "lock-order",
        summary: "lock pairs are acquired in one consistent order",
        check: crate::flow::check_lock_order,
    },
    Rule {
        id: "determinism-taint",
        summary: "nondeterminism sources must not flow into Verify/meter/artifact state",
        check: crate::taint::check_determinism_taint,
    },
    Rule {
        id: "registry-coverage",
        summary: "every registry paper_versions entry has a runnable variant or a documented gap",
        check: registry_coverage,
    },
];

fn ident(t: Option<&crate::lex::Token>, s: &str) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Ident(i)) if i == s)
}

fn ident_in(t: Option<&crate::lex::Token>, set: &[&str]) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Ident(i)) if set.contains(&i.as_str()))
}

fn punct(t: Option<&crate::lex::Token>, c: char) -> bool {
    matches!(t.map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `a::b` starting at token `i` (four tokens: Ident, ':', ':', Ident).
fn path2(f: &SourceFile, i: usize, heads: &[&str], tails: &[&str]) -> bool {
    ident_in(f.tokens.get(i), heads)
        && punct(f.tokens.get(i + 1), ':')
        && punct(f.tokens.get(i + 2), ':')
        && ident_in(f.tokens.get(i + 3), tails)
}

// ------------------------------------------------------ nan-unsafe-fold

/// Spans (token-index ranges) of `.fold(` / `.reduce(` argument lists
/// whose seed is a floating literal (or an `f64::`/`f32::` constant) —
/// the classic worst-error fold shape.
fn float_fold_spans(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..f.tokens.len() {
        if !(punct(f.tokens.get(i), '.')
            && ident_in(f.tokens.get(i + 1), &["fold", "reduce"])
            && punct(f.tokens.get(i + 2), '('))
        {
            continue;
        }
        let mut k = i + 3;
        // Skip a leading unary minus on the seed.
        if punct(f.tokens.get(k), '-') {
            k += 1;
        }
        let float_seed = matches!(f.tokens.get(k).map(|t| &t.tok), Some(Tok::Float(_)))
            || ident_in(f.tokens.get(k), &["f64", "f32"]);
        if !float_seed {
            continue;
        }
        // Find the matching close paren of the fold call.
        let mut depth = 1usize;
        let mut j = i + 3;
        while j < f.tokens.len() && depth > 0 {
            if punct(f.tokens.get(j), '(') {
                depth += 1;
            } else if punct(f.tokens.get(j), ')') {
                depth -= 1;
            }
            j += 1;
        }
        spans.push((i + 3, j));
    }
    spans
}

fn nan_unsafe_fold(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let spans = float_fold_spans(f);
    for i in 0..f.tokens.len() {
        // `f64::max` / `f32::min` as a path — NaN-dropping wherever it
        // appears (typically passed to a fold).
        if path2(f, i, &["f64", "f32"], &["max", "min"]) {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "nan-unsafe-fold",
                Severity::Error,
                "IEEE f64::max/min silently drops NaN, so a poisoned buffer can fold to a passing metric"
                    .into(),
                "use dpf_core::nan_max / dpf_core::nan_min".into(),
            ));
            continue;
        }
        // `.max(` / `.min(` method call.
        if !(punct(f.tokens.get(i), '.')
            && ident_in(f.tokens.get(i + 1), &["max", "min"])
            && punct(f.tokens.get(i + 2), '('))
        {
            continue;
        }
        // Integer clamps (`.max(1)`, `.min(8)`) are fine anywhere, and
        // zero-argument `.max()`/`.min()` is `Iterator::max` — it needs
        // `Ord`, which f64 does not implement, so it cannot drop NaN.
        if matches!(f.tokens.get(i + 3).map(|t| &t.tok), Some(Tok::Int(_)))
            || punct(f.tokens.get(i + 3), ')')
        {
            continue;
        }
        let in_verify = f
            .fn_at(i)
            .is_some_and(|s| s.returns_verify || s.name.contains("verify"));
        let in_float_fold = spans.iter().any(|&(a, b)| i >= a && i < b);
        if in_verify || in_float_fold {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "nan-unsafe-fold",
                Severity::Error,
                "bare .max()/.min() in verify/reduction code drops NaN (0.0f64.max(NAN) == 0.0)"
                    .into(),
                "fold with dpf_core::nan_max / dpf_core::nan_min instead".into(),
            ));
        }
    }
    out
}

// -------------------------------------------------------- untimed-clock

/// Modules allowed to read the wall clock: the instrumentation layer
/// that owns §1.5 busy/elapsed accounting and the watchdog harness that
/// owns attempt timeouts. Everything else must go through them.
const CLOCK_SANCTIONED: &[&str] = &["dpf-core/src/instr.rs", "dpf-suite/src/harness.rs"];

fn untimed_clock(f: &SourceFile) -> Vec<Diagnostic> {
    if CLOCK_SANCTIONED.iter().any(|m| f.path.ends_with(m)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if path2(f, i, &["Instant", "SystemTime"], &["now"]) {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "untimed-clock",
                Severity::Warning,
                "raw clock read outside the metrics/harness layer fragments §1.5 busy/elapsed accounting"
                    .into(),
                "time phases via Ctx::busy / the Instr layer, or justify with an allow pragma"
                    .into(),
            ));
        }
    }
    out
}

// ------------------------------------------------------- hot-path-alloc

/// Token spans of `run_workers(...)` call argument lists. The worker
/// closure passed to `run_workers` is SPMD *protocol* code: message
/// payloads are owned frames handed to the router, so allocating them
/// is the point, not a hot-path leak. The rule guards the numeric path
/// around the protocol, not the protocol itself.
fn worker_closure_spans(f: &SourceFile) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for i in 0..f.tokens.len() {
        if !(ident(f.tokens.get(i), "run_workers") && punct(f.tokens.get(i + 1), '(')) {
            continue;
        }
        let mut depth = 1usize;
        let mut j = i + 2;
        while j < f.tokens.len() && depth > 0 {
            if punct(f.tokens.get(j), '(') {
                depth += 1;
            } else if punct(f.tokens.get(j), ')') {
                depth -= 1;
            }
            j += 1;
        }
        spans.push((i + 2, j));
    }
    spans
}

fn hot_path_alloc(f: &SourceFile) -> Vec<Diagnostic> {
    let protocol = worker_closure_spans(f);
    let mut out = Vec::new();
    let mut flag = |i: usize, what: &str| {
        out.push(Diagnostic::new(
            &f.path,
            f.tokens[i].line,
            "hot-path-alloc",
            Severity::Warning,
            format!("{what} allocates inside a zero-allocation hot path"),
            "reuse a caller buffer or Ctx::scratch from the BufferPool".into(),
        ));
    };
    for i in 0..f.tokens.len() {
        let Some(span) = f.fn_at(i) else { continue };
        if !(span.name.ends_with("_into") || span.name.ends_with("_exec")) {
            continue;
        }
        if protocol.iter().any(|&(a, b)| i >= a && i < b) {
            continue;
        }
        if path2(f, i, &["Vec"], &["new", "with_capacity"]) {
            flag(i, "Vec::new/with_capacity");
        } else if ident(f.tokens.get(i), "vec") && punct(f.tokens.get(i + 1), '!') {
            flag(i, "vec![]");
        } else if punct(f.tokens.get(i), '.') && ident(f.tokens.get(i + 1), "collect") {
            flag(i, ".collect()");
        } else if punct(f.tokens.get(i), '.')
            && ident(f.tokens.get(i + 1), "to_vec")
            && punct(f.tokens.get(i + 2), '(')
        {
            flag(i, ".to_vec()");
        }
    }
    out
}

// ------------------------------------------------------- hot-path-clone

/// `DistArray`-typed parameter names per `*_into`/`*_exec` fn in the
/// file. Heuristic: inside the fn's parenthesized parameter list, an
/// `ident :` at top nesting level (not the `::` of a path) starts a
/// parameter whose type region runs to the next top-level parameter or
/// the closing paren; the parameter counts if `DistArray` appears
/// anywhere in that region.
fn hot_fn_distarray_params(f: &SourceFile) -> BTreeMap<String, Vec<String>> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for i in 0..f.tokens.len() {
        if !ident(f.tokens.get(i), "fn") {
            continue;
        }
        let Some(Tok::Ident(name)) = f.tokens.get(i + 1).map(|t| &t.tok) else {
            continue;
        };
        if !(name.ends_with("_into") || name.ends_with("_exec")) {
            continue;
        }
        // Skip any generic parameter list between the name and `(`.
        let mut j = i + 2;
        while j < f.tokens.len() && !punct(f.tokens.get(j), '(') {
            if punct(f.tokens.get(j), '{') {
                break;
            }
            j += 1;
        }
        if !punct(f.tokens.get(j), '(') {
            continue;
        }
        let mut depth = 1usize;
        let mut k = j + 1;
        let mut current: Option<String> = None;
        while k < f.tokens.len() && depth > 0 {
            if punct(f.tokens.get(k), '(') {
                depth += 1;
            } else if punct(f.tokens.get(k), ')') {
                depth -= 1;
            } else if depth == 1 {
                if let Some(Tok::Ident(p)) = f.tokens.get(k).map(|t| &t.tok) {
                    if punct(f.tokens.get(k + 1), ':') && !punct(f.tokens.get(k + 2), ':') {
                        current = Some(p.clone());
                    } else if p == "DistArray" {
                        if let Some(cur) = &current {
                            map.entry(name.clone()).or_default().push(cur.clone());
                        }
                    }
                }
            }
            k += 1;
        }
    }
    map
}

fn hot_path_clone(f: &SourceFile) -> Vec<Diagnostic> {
    let params = hot_fn_distarray_params(f);
    if params.is_empty() {
        return Vec::new();
    }
    let protocol = worker_closure_spans(f);
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        let Some(Tok::Ident(var)) = f.tokens.get(i).map(|t| &t.tok) else {
            continue;
        };
        // `var.clone(` — a chained receiver like `x.layout().clone()`
        // never matches (the token before `.clone` is `)`), so cheap
        // clones of metadata stay legal.
        if !(punct(f.tokens.get(i + 1), '.')
            && ident(f.tokens.get(i + 2), "clone")
            && punct(f.tokens.get(i + 3), '('))
        {
            continue;
        }
        let Some(span) = f.fn_at(i) else { continue };
        if !(span.name.ends_with("_into") || span.name.ends_with("_exec")) {
            continue;
        }
        if protocol.iter().any(|&(a, b)| i >= a && i < b) {
            continue;
        }
        let Some(ps) = params.get(&span.name) else {
            continue;
        };
        if !ps.iter().any(|p| p == var) {
            continue;
        }
        out.push(Diagnostic::new(
            &f.path,
            f.tokens[i].line,
            "hot-path-clone",
            Severity::Warning,
            format!("`{var}.clone()` copies a whole DistArray inside a zero-allocation hot path"),
            "borrow the input, or reuse a pooled buffer via DistArray::scratch".into(),
        ));
    }
    out
}

// --------------------------------------------------------- metered-send

/// Functions inside the transport that *are* the envelope path: the
/// only places a raw channel `.send(` is legitimate. `send_recovery` is
/// the recovery channel — replica pushes and rehydration forwards are
/// metered on the dedicated recovery counters there, never as §1.5
/// logical messages.
const ENVELOPE_PATH: &[&str] = &["transmit", "send_ctl", "send_recovery"];

fn metered_send(f: &SourceFile) -> Vec<Diagnostic> {
    if !(f.path.ends_with("/spmd.rs") || f.path == "spmd.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 1..f.tokens.len() {
        if !(punct(f.tokens.get(i), '.')
            && ident(f.tokens.get(i + 1), "send")
            && punct(f.tokens.get(i + 2), '('))
        {
            continue;
        }
        // Receiver heuristic: the identifier just before the dot. A
        // `router.send(...)` (or anything named `*router`) is the
        // metered API; everything else is a raw channel endpoint.
        let metered_receiver = matches!(
            f.tokens.get(i - 1).map(|t| &t.tok),
            Some(Tok::Ident(r)) if r.ends_with("router")
        );
        if metered_receiver {
            continue;
        }
        let in_envelope_path = f
            .fn_at(i)
            .is_some_and(|s| ENVELOPE_PATH.contains(&s.name.as_str()));
        if !in_envelope_path {
            out.push(Diagnostic::new(
                &f.path,
                f.tokens[i].line,
                "metered-send",
                Severity::Error,
                "raw channel send bypasses the LinkMeter/envelope path, so §1.5 message counts drift"
                    .into(),
                "send through Router::send (or extend transmit/send_ctl if this is protocol traffic)"
                    .into(),
            ));
        }
    }
    out
}

// ----------------------------------------------------- flop-conventions

/// Paper §1.5 operation weights (Hennessy & Patterson, the paper's
/// reference [6]).
const FLOP_WEIGHTS: &[(&str, u64)] = &[
    ("ADD", 1),
    ("SUB", 1),
    ("MUL", 1),
    ("DIV", 4),
    ("SQRT", 4),
    ("LOG", 8),
    ("TRIG", 8),
    ("EXP", 8),
];

fn flop_conventions(f: &SourceFile) -> Vec<Diagnostic> {
    if !f.path.ends_with("flops.rs") {
        return Vec::new();
    }
    let mut seen: BTreeMap<&str, (u64, u32)> = BTreeMap::new();
    for i in 0..f.tokens.len() {
        // `pub const NAME: u64 = <int>;`
        if !(ident(f.tokens.get(i), "pub") && ident(f.tokens.get(i + 1), "const")) {
            continue;
        }
        let Some(Tok::Ident(name)) = f.tokens.get(i + 2).map(|t| &t.tok) else {
            continue;
        };
        let Some(entry) = FLOP_WEIGHTS.iter().find(|(n, _)| n == name) else {
            continue;
        };
        // Scan to the `=` and read the integer literal after it.
        let mut j = i + 3;
        while j < f.tokens.len() && !punct(f.tokens.get(j), '=') && !punct(f.tokens.get(j), ';') {
            j += 1;
        }
        if let Some(Tok::Int(text)) = f.tokens.get(j + 1).map(|t| &t.tok) {
            let digits: String = text.chars().take_while(|c| c.is_ascii_digit()).collect();
            if let Ok(v) = digits.parse::<u64>() {
                seen.insert(entry.0, (v, f.tokens[i + 2].line));
            }
        }
    }
    let mut out = Vec::new();
    for (name, expect) in FLOP_WEIGHTS {
        match seen.get(name) {
            Some(&(v, _)) if v == *expect => {}
            Some(&(v, line)) => out.push(Diagnostic::new(
                &f.path,
                line,
                "flop-conventions",
                Severity::Error,
                format!(
                    "FLOP weight {name} = {v} contradicts the paper's table (§1.5 says {expect})"
                ),
                format!("restore `pub const {name}: u64 = {expect};`"),
            )),
            None => out.push(Diagnostic::new(
                &f.path,
                1,
                "flop-conventions",
                Severity::Error,
                format!("FLOP weight constant {name} is missing from the conventions table"),
                format!("declare `pub const {name}: u64 = {expect};`"),
            )),
        }
    }
    if !f.fns.iter().any(|s| s.name == "reduction") {
        out.push(Diagnostic::new(
            &f.path,
            1,
            "flop-conventions",
            Severity::Error,
            "the N-1 reduction FLOP helper `reduction` is missing".into(),
            "restore `pub const fn reduction(n: u64) -> u64`".into(),
        ));
    }
    out
}

// -------------------------------------------------------- unsafe-forbid

fn unsafe_forbid(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        if !ident(f.tokens.get(i), "unsafe") {
            continue;
        }
        let line = f.tokens[i].line;
        let has_safety = f.comments.iter().any(|c| {
            c.line + 3 >= line && c.line <= line && c.text.trim_start().starts_with("SAFETY:")
        });
        let mut d = Diagnostic::new(
            &f.path,
            line,
            "unsafe-forbid",
            Severity::Error,
            if has_safety {
                "the repo is unsafe-free by policy; this block needs an explicit allow pragma"
                    .into()
            } else {
                "unsafe without a `// SAFETY:` justification comment".into()
            },
            "add `// SAFETY: <why this is sound>` and `// dpf-lint: allow(unsafe-forbid, reason = ...)`"
                .into(),
        );
        d.suppressible = has_safety;
        out.push(d);
    }
    out
}

// ------------------------------------------------------ atomic-artifact

/// The modules allowed to create files directly: the atomic writer
/// itself (its temp file is the mechanism) and the journal (its
/// append-only file is fsync'd per record, a different durability
/// discipline that rename-replace cannot express).
const ARTIFACT_SANCTIONED: &[&str] = &["dpf-suite/src/artifact.rs", "dpf-suite/src/journal.rs"];

/// A bare `fs::write` (or `File::create`) left a truncated file under
/// its final name when the process died mid-write — exactly the torn
/// artifact that `dpf tables --campaign` then chokes on. Everything
/// machine-read must go through `dpf_suite::artifact::write_atomic`
/// (temp + fsync + rename), so readers only ever observe complete
/// files.
fn atomic_artifact(f: &SourceFile) -> Vec<Diagnostic> {
    if ARTIFACT_SANCTIONED.iter().any(|m| f.path.ends_with(m)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..f.tokens.len() {
        let what = if path2(f, i, &["fs"], &["write"]) {
            "fs::write"
        } else if path2(f, i, &["File"], &["create"]) {
            "File::create"
        } else {
            continue;
        };
        out.push(Diagnostic::new(
            &f.path,
            f.tokens[i].line,
            "atomic-artifact",
            Severity::Warning,
            format!("direct {what} publishes a torn file if the process dies mid-write"),
            "write through dpf_suite::artifact::write_atomic (temp + fsync + rename)".into(),
        ));
    }
    out
}

// ------------------------------------------------------ comm-inventory

/// The 17 `CommPattern` variants (dpf-core/src/instrument.rs): any
/// other name in a `patterns:` field or inventory entry is a typo.
pub const KNOWN_PATTERNS: &[&str] = &[
    "Stencil",
    "Gather",
    "GatherCombine",
    "Scatter",
    "ScatterCombine",
    "Reduction",
    "Broadcast",
    "Spread",
    "Aabc",
    "Aapc",
    "Butterfly",
    "Scan",
    "Cshift",
    "Eoshift",
    "Send",
    "Get",
    "Sort",
];

/// Pull every `Xxx` out of `Path::Xxx` occurrences in a snippet. Both
/// spellings of the inventory (`P::Cshift` in the registry,
/// `CommPattern::Cshift` in the tables) reduce to the variant name.
fn path_variants(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(k) = text[i..].find("::") {
        let start = i + k + 2;
        let mut end = start;
        while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
            end += 1;
        }
        if end > start {
            out.push(text[start..end].to_string());
        }
        i = end.max(i + k + 2);
    }
    out
}

/// Textual parse of the registry: each benchmark's `name: "..."` and
/// the variant names in its `patterns: &[...]` field (which may span
/// lines). Returns `(name, patterns, line-of-patterns-field)`.
pub fn registry_patterns(src: &str) -> Vec<(String, Vec<String>, u32)> {
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    let mut acc: Option<(String, u32)> = None;
    for (k, line) in src.lines().enumerate() {
        let lno = k as u32 + 1;
        let t = line.trim();
        if let Some((buf, at)) = acc.as_mut() {
            buf.push_str(t);
            if t.contains(']') {
                let (n, b, a) = (name.clone(), buf.clone(), *at);
                acc = None;
                if let Some(n) = n {
                    out.push((n, path_variants(&b), a));
                }
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("name:") {
            name = rest
                .split('"')
                .nth(1)
                .map(str::to_string)
                .or_else(|| name.clone());
        } else if let Some(rest) = t.strip_prefix("patterns:") {
            if rest.contains(']') {
                if let Some(n) = name.clone() {
                    out.push((n, path_variants(rest), lno));
                }
            } else {
                acc = Some((rest.to_string(), lno));
            }
        }
    }
    out
}

/// Textual parse of the `COMM_INVENTORY` static in tables.rs: each
/// `("name", &[CommPattern::X, ...])` entry (which may span lines).
/// Returns `None` when the file has no `COMM_INVENTORY` at all.
pub fn inventory_entries(src: &str) -> Option<Vec<(String, Vec<String>, u32)>> {
    let mut lines = src.lines().enumerate();
    lines.find(|(_, l)| l.contains("COMM_INVENTORY"))?;
    let mut out = Vec::new();
    let mut entry: Option<(String, u32, i32)> = None;
    for (k, line) in lines {
        let lno = k as u32 + 1;
        let t = line.trim();
        if entry.is_none() && t == "];" {
            break;
        }
        let (buf, at, depth) = match entry.as_mut() {
            Some(e) => e,
            None => {
                if !t.starts_with('(') {
                    continue;
                }
                entry = Some((String::new(), lno, 0));
                entry.as_mut().unwrap()
            }
        };
        buf.push_str(t);
        *depth += t.chars().filter(|&c| c == '(').count() as i32;
        *depth -= t.chars().filter(|&c| c == ')').count() as i32;
        if *depth <= 0 {
            let name = buf.split('"').nth(1).unwrap_or("").to_string();
            out.push((name, path_variants(buf), *at));
            entry = None;
        }
    }
    Some(out)
}

/// Tree-wide `comm-inventory` rule: the registry's per-benchmark
/// `patterns` fields and the §1.5 `COMM_INVENTORY` in tables.rs are two
/// spellings of the same paper fact (Tables 3/7); they must list the
/// same benchmarks with the same pattern sets, and only real
/// `CommPattern` variant names. Silent when the tree has no registry
/// (fixture mini-trees); a registry without any inventory is an error.
pub fn check_comm_inventory(
    registry: Option<(&str, &str)>,
    tables: Option<(&str, &str)>,
) -> Vec<Diagnostic> {
    let Some((reg_path, reg_src)) = registry else {
        return Vec::new();
    };
    let reg = registry_patterns(reg_src);
    let inv = tables.and_then(|(_, src)| inventory_entries(src));
    let mut out = Vec::new();
    let Some(inv) = inv else {
        out.push(Diagnostic::new(
            reg_path,
            0,
            "comm-inventory",
            Severity::Error,
            "registry has benchmark pattern fields but no COMM_INVENTORY declares the §1.5 tables"
                .into(),
            "declare `pub const COMM_INVENTORY` in dpf-suite's tables.rs (one entry per benchmark)"
                .into(),
        ));
        return out;
    };
    let tab_path = tables.map(|(p, _)| p).unwrap_or("(tree)");
    let check_names = |path: &str, name: &str, pats: &[String], line: u32, out: &mut Vec<_>| {
        for p in pats {
            if !KNOWN_PATTERNS.contains(&p.as_str()) {
                out.push(Diagnostic::new(
                    path,
                    line,
                    "comm-inventory",
                    Severity::Error,
                    format!("`{name}` names unknown communication pattern `{p}`"),
                    "use one of the 17 CommPattern variants (see dpf-core instrument.rs)".into(),
                ));
            }
        }
    };
    for (name, pats, line) in &reg {
        check_names(reg_path, name, pats, *line, &mut out);
        match inv.iter().find(|(n, _, _)| n == name) {
            None => out.push(Diagnostic::new(
                reg_path,
                *line,
                "comm-inventory",
                Severity::Error,
                format!("benchmark `{name}` has no §1.5 COMM_INVENTORY entry"),
                format!("add (\"{name}\", &[...]) to COMM_INVENTORY in tables.rs"),
            )),
            Some((_, declared, _)) => {
                let mut a = pats.clone();
                let mut b = declared.clone();
                a.sort();
                b.sort();
                if a != b {
                    out.push(Diagnostic::new(
                        reg_path,
                        *line,
                        "comm-inventory",
                        Severity::Error,
                        format!(
                            "`{name}` declares patterns [{}] but the §1.5 inventory says [{}]",
                            pats.join(", "),
                            declared.join(", ")
                        ),
                        "fix whichever side drifted from the paper's Tables 3/7".into(),
                    ));
                }
            }
        }
    }
    let mut seen: Vec<&str> = Vec::new();
    for (name, pats, line) in &inv {
        check_names(tab_path, name, pats, *line, &mut out);
        if seen.contains(&name.as_str()) {
            out.push(Diagnostic::new(
                tab_path,
                *line,
                "comm-inventory",
                Severity::Error,
                format!("COMM_INVENTORY lists `{name}` twice"),
                "keep one entry per benchmark".into(),
            ));
        }
        seen.push(name);
        if !reg.iter().any(|(n, _, _)| n == name) {
            out.push(Diagnostic::new(
                tab_path,
                *line,
                "comm-inventory",
                Severity::Error,
                format!("COMM_INVENTORY lists `{name}`, which is not in the registry"),
                "remove the stale entry or restore the benchmark".into(),
            ));
        }
    }
    out
}

// --------------------------------------------------- registry-coverage

/// The paper's five implementation versions (Table 2).
pub const KNOWN_VERSIONS: &[&str] = &["Basic", "Optimized", "Library", "Cmssl", "CDpeac"];

/// `registry-coverage` (the ROADMAP carry-over): every version a
/// registry entry *claims* from the paper (`paper_versions`) must have
/// a runnable variant in its `variants` field — otherwise the golden
/// tables advertise measurements the suite cannot produce. A genuine
/// gap (e.g. CMSSL's library internals are unpublished) is documented
/// with an `allow(registry-coverage, ...)` pragma directly above the
/// `paper_versions:` field, which keeps the gap visible in the source
/// instead of silently implied. Runs per-file (so pragmas apply),
/// scoped to the real registry path.
fn registry_coverage(f: &SourceFile) -> Vec<Diagnostic> {
    if !f.path.ends_with("dpf-suite/src/registry.rs") {
        return Vec::new();
    }
    // Per entry: (name, paper_versions line, claimed, runnable).
    type EntryState = (String, Option<(u32, Vec<String>)>, Vec<String>);
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut cur: Option<EntryState> = None;
    let flush = |cur: &mut Option<EntryState>, out: &mut Vec<Diagnostic>| {
        let Some((name, pv, variants)) = cur.take() else {
            return;
        };
        let Some((line, claimed)) = pv else { return };
        for v in &claimed {
            if !KNOWN_VERSIONS.contains(&v.as_str()) && v != "Version" {
                out.push(Diagnostic::new(
                    &f.path,
                    line,
                    "registry-coverage",
                    Severity::Error,
                    format!("registry entry `{name}` claims unknown paper version `{v}`"),
                    format!("use one of {KNOWN_VERSIONS:?} (paper Table 2)"),
                ));
            }
        }
        let missing: Vec<&String> = claimed
            .iter()
            .filter(|v| KNOWN_VERSIONS.contains(&v.as_str()) && !variants.contains(v))
            .collect();
        if !missing.is_empty() {
            let list = missing
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join(", ");
            out.push(Diagnostic::new(
                &f.path,
                line,
                "registry-coverage",
                Severity::Error,
                format!(
                    "registry entry `{name}` claims paper version(s) [{list}] with no \
                     runnable variant: the golden tables advertise measurements the \
                     suite cannot produce"
                ),
                "add the variant(s), or document the gap with a pragma directly above \
                 `paper_versions:` stating why the version cannot be reproduced"
                    .into(),
            ));
        }
    };
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(k) if k == "name" && punct(toks.get(i + 1), ':') => {
                if let Some(Tok::Str(s)) = toks.get(i + 2).map(|t| &t.tok) {
                    flush(&mut cur, &mut out);
                    cur = Some((s.clone(), None, Vec::new()));
                    i += 3;
                    continue;
                }
            }
            Tok::Ident(k) if k == "paper_versions" && punct(toks.get(i + 1), ':') => {
                let line = toks[i].line;
                let mut claimed = Vec::new();
                let mut j = i + 2;
                while j < toks.len() && !punct(toks.get(j), ']') {
                    if let Tok::Ident(v) = &toks[j].tok {
                        if v != "Version" {
                            claimed.push(v.clone());
                        }
                    }
                    j += 1;
                }
                if let Some((_, pv, _)) = cur.as_mut() {
                    *pv = Some((line, claimed));
                }
                i = j + 1;
                continue;
            }
            Tok::Ident(k) if k == "variants" && punct(toks.get(i + 1), ':') => {
                // Collect version idents in the field value (macro form
                // `variants!(Basic => path, ...)` or a literal slice)
                // up to the field's `,` at delimiter depth zero.
                let mut j = i + 2;
                let mut depth = 0i32;
                let mut found = Vec::new();
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                        Tok::Punct(')') | Tok::Punct(']') => {
                            depth -= 1;
                            if depth < 0 {
                                break;
                            }
                        }
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth < 0 {
                                break;
                            }
                        }
                        Tok::Punct(',') if depth == 0 => break,
                        Tok::Ident(v) if KNOWN_VERSIONS.contains(&v.as_str()) => {
                            found.push(v.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some((_, _, vs)) = cur.as_mut() {
                    vs.extend(found);
                }
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    flush(&mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    fn rules_hit(src: &str, path: &str) -> Vec<(&'static str, u32)> {
        lint_source(path, src)
            .into_iter()
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn nan_fold_catches_the_pr2_bug_class() {
        let src = r#"
pub fn check(errs: &[f64]) -> Verify {
    let worst = errs.iter().fold(0.0, |m, v| m.max(v.abs()));
    Verify::check("residual", worst, 1e-9)
}
"#;
        let hits = rules_hit(src, "crates/dpf-apps/src/x.rs");
        assert!(hits.contains(&("nan-unsafe-fold", 3)), "{hits:?}");
    }

    #[test]
    fn nan_fold_catches_f64_max_path_and_float_folds_outside_verify() {
        let src = "fn any() { let w = xs.iter().copied().fold(0.0f64, f64::max); }";
        let hits = rules_hit(src, "a.rs");
        assert!(hits.iter().any(|h| h.0 == "nan-unsafe-fold"), "{hits:?}");
        let src2 = "fn any() { let w = xs.iter().fold(-f64::INFINITY, |m, v| m.max(v)); }";
        assert!(rules_hit(src2, "a.rs")
            .iter()
            .any(|h| h.0 == "nan-unsafe-fold"));
    }

    #[test]
    fn nan_fold_ignores_integer_clamps_and_domain_math() {
        // usize clamp inside a verify fn, and float math outside one.
        let src = "
pub fn verify_shape(n: usize) -> Verify { let m = n.max(1); Verify::NotApplicable }
fn step(d: f64, nx: f64) -> f64 { d.min(nx - d) }
";
        assert!(rules_hit(src, "a.rs").is_empty());
    }

    #[test]
    fn untimed_clock_spares_sanctioned_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(!rules_hit(src, "crates/dpf-core/src/instr.rs")
            .iter()
            .any(|h| h.0 == "untimed-clock"));
        assert!(rules_hit(src, "crates/dpf-apps/src/md.rs")
            .iter()
            .any(|h| h.0 == "untimed-clock"));
    }

    #[test]
    fn hot_path_alloc_scopes_to_into_and_exec() {
        let src = "
pub fn map_into(out: &mut [f64]) { let v: Vec<f64> = xs.iter().collect(); }
pub fn map(xs: &[f64]) -> Vec<f64> { xs.to_vec() }
";
        let hits = rules_hit(src, "a.rs");
        assert!(hits.contains(&("hot-path-alloc", 2)), "{hits:?}");
        assert_eq!(hits.iter().filter(|h| h.0 == "hot-path-alloc").count(), 1);
    }

    #[test]
    fn hot_path_clone_flags_distarray_param_clones() {
        let src = "
pub fn fuse_into(ctx: &Ctx, a: &DistArray<f64>, out: &mut DistArray<f64>) {
    let staging = a.clone();
    let lay = out.layout().clone();
}
pub fn build(a: &DistArray<f64>) -> DistArray<f64> { a.clone() }
";
        let hits = rules_hit(src, "a.rs");
        // The DistArray parameter clone in the hot path is flagged...
        assert!(hits.contains(&("hot-path-clone", 3)), "{hits:?}");
        // ...but the metadata clone and the non-hot fn are not.
        assert_eq!(hits.iter().filter(|h| h.0 == "hot-path-clone").count(), 1);
    }

    #[test]
    fn hot_path_clone_ignores_non_distarray_params() {
        let src = "
pub fn scale_into(plan: &Plan, out: &mut DistArray<f64>) {
    let p = plan.clone();
}
";
        assert!(!rules_hit(src, "a.rs")
            .iter()
            .any(|h| h.0 == "hot-path-clone"));
    }

    #[test]
    fn metered_send_flags_raw_channel_sends_in_spmd() {
        let src = "
fn leak(tx: &Sender<u8>) { tx.send(1).unwrap(); }
fn transmit(&self) { self.txs[0].send(frame).unwrap(); }
fn ok(router: &mut Router) { router.send(1, 8, msg); }
";
        let hits = rules_hit(src, "crates/dpf-core/src/spmd.rs");
        assert_eq!(
            hits.iter().filter(|h| h.0 == "metered-send").count(),
            1,
            "{hits:?}"
        );
        assert!(hits.contains(&("metered-send", 2)));
        // Same source outside spmd.rs: no rule.
        assert!(rules_hit(src, "crates/dpf-core/src/other.rs").is_empty());
    }

    #[test]
    fn flop_conventions_checks_the_table() {
        let good = "
pub const ADD: u64 = 1; pub const SUB: u64 = 1; pub const MUL: u64 = 1;
pub const DIV: u64 = 4; pub const SQRT: u64 = 4;
pub const LOG: u64 = 8; pub const TRIG: u64 = 8; pub const EXP: u64 = 8;
pub const fn reduction(n: u64) -> u64 { n.saturating_sub(1) }
";
        assert!(rules_hit(good, "crates/dpf-core/src/flops.rs").is_empty());
        let drifted = good.replace("DIV: u64 = 4", "DIV: u64 = 2");
        let hits = rules_hit(&drifted, "crates/dpf-core/src/flops.rs");
        assert!(hits.iter().any(|h| h.0 == "flop-conventions"), "{hits:?}");
        // The table is only enforced in flops.rs.
        assert!(rules_hit(&drifted, "crates/dpf-core/src/cost.rs").is_empty());
    }

    #[test]
    fn atomic_artifact_spares_the_writer_and_journal() {
        let src = "
fn save(dir: &Path) {
    std::fs::write(dir.join(\"campaign.json\"), text).unwrap();
    let f = File::create(dir.join(\"tables.md\")).unwrap();
}
";
        let hits = rules_hit(src, "crates/dpf-cli/src/main.rs");
        assert_eq!(
            hits.iter().filter(|h| h.0 == "atomic-artifact").count(),
            2,
            "{hits:?}"
        );
        // The sanctioned modules are the mechanism, not a violation.
        assert!(!rules_hit(src, "crates/dpf-suite/src/artifact.rs")
            .iter()
            .any(|h| h.0 == "atomic-artifact"));
        assert!(!rules_hit(src, "crates/dpf-suite/src/journal.rs")
            .iter()
            .any(|h| h.0 == "atomic-artifact"));
    }

    #[test]
    fn registry_coverage_flags_unrunnable_paper_versions() {
        let src = r#"
pub fn registry() -> Vec<BenchEntry> {
    vec![
        BenchEntry {
            name: "fft",
            paper_versions: &[Basic, Library, Cmssl],
            variants: variants!(Basic => r::fft),
        },
        BenchEntry {
            name: "pcr",
            paper_versions: &[Basic, Optimized],
            variants: variants!(Basic => r::pcr, Optimized => r::pcr_opt, Library => r::pcr_lib),
        },
        BenchEntry {
            name: "typo",
            paper_versions: &[Basix],
            variants: variants!(Basic => r::typo),
        },
    ]
}
"#;
        let hits = rules_hit(src, "crates/dpf-suite/src/registry.rs");
        let cov: Vec<_> = hits.iter().filter(|h| h.0 == "registry-coverage").collect();
        // fft misses Library+Cmssl (one diagnostic), typo has an
        // unknown version; pcr's extra runnable variant is fine.
        assert_eq!(cov.len(), 2, "{hits:?}");
        // Any other path is out of scope.
        assert!(rules_hit(src, "crates/dpf-suite/src/other.rs")
            .iter()
            .all(|h| h.0 != "registry-coverage"));
        // A pragma above paper_versions documents the gap.
        let excused = src.replace(
            "            paper_versions: &[Basic, Library, Cmssl],",
            "            // dpf-lint: allow(registry-coverage, reason = \"CMSSL internals unpublished\")\n            paper_versions: &[Basic, Library, Cmssl],",
        );
        let diags = lint_source("crates/dpf-suite/src/registry.rs", &excused);
        assert!(
            !diags
                .iter()
                .any(|d| d.rule == "registry-coverage" && d.message.contains("fft")),
            "{diags:?}"
        );
    }

    #[test]
    fn unsafe_needs_safety_comment_and_pragma() {
        let bare = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        let hits = lint_source("a.rs", bare);
        assert!(hits
            .iter()
            .any(|d| d.rule == "unsafe-forbid" && !d.suppressible));
        let excused = "
fn f() {
    // SAFETY: n < len checked above
    // dpf-lint: allow(unsafe-forbid, reason = \"bounds proven by caller\")
    unsafe { go(n) }
}
";
        let hits = lint_source("a.rs", excused);
        assert!(!hits.iter().any(|d| d.rule == "unsafe-forbid"), "{hits:?}");
        // SAFETY comment alone (no pragma) still fails.
        let half = "
fn f() {
    // SAFETY: trust me
    unsafe { go(n) }
}
";
        assert!(lint_source("a.rs", half)
            .iter()
            .any(|d| d.rule == "unsafe-forbid" && d.suppressible));
    }
}
