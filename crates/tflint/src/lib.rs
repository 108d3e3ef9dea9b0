//! tflint — domain-aware static analysis for the ThymesisFlow workspace.
//!
//! The simulator's credibility rests on determinism and unit-correct
//! arithmetic (950 ns flit RTT, credit-conserving LLC backpressure,
//! 12.5 GiB/s channel ceilings). tflint enforces the rules that keep
//! those properties from silently eroding:
//!
//! | rule  | checks                                                        |
//! |-------|---------------------------------------------------------------|
//! | TF001 | no wall-clock (`Instant`/`SystemTime`) in simulation crates   |
//! | TF002 | no entropy- or ad-hoc-seeded RNG outside `simkit::rng`        |
//! | TF003 | no bare `u64`/`f64` params with unit-implying names in public APIs (unit crates + `core::fabric`) |
//! | TF004 | no `unwrap()`/`expect()`/`panic!` in non-test datapath code (datapath crates + `core::fabric`) |
//! | TF005 | no truncating `as` casts on time/credit/byte values           |
//! | TF006 | no float `==`/`!=` in stats/bandwidth code                    |
//! | TF007 | no wall-clock reads (`Instant::now`/`SystemTime::now`/`UNIX_EPOCH`) in simulation crates, tests included |
//! | TF008 | no `unwrap()`/`expect()` in failure-recovery modules (chaos/recovery/retry files, any crate) |
//! | TF009 | no iteration over `HashMap`/`HashSet` in deterministic crates (keyed lookup stays allowed) |
//! | TF010 | no `static mut`/`thread_local!`/cell-based interior mutability in sim crates outside `simkit::{sweep, partition}` |
//! | TF011 | no `std::sync` primitives (`Mutex`/`RwLock`/atomics/...) outside `simkit::{sweep, partition}` |
//! | TF012 | no order-sensitive float accumulation over unordered collections |
//! | TF013 | no public fallible `&mut self` APIs returning bare `bool`/`Option<()>` where the crate has a typed error |
//! | TF014 | no `println!`/`eprintln!` (or `print!`/`eprint!`) in simulation crate library code |
//! | TF015 | no file-backed `pub mod` in a crate root that nothing outside its own files names (workspace runs only) |
//! | TF016 | no library `pub fn` whose name nothing outside its crate's `src/` spells (workspace runs only) |
//!
//! A finding is suppressed by a `// tflint::allow(TFnnn): reason`
//! comment on the same line or the line directly above; the reason is
//! mandatory. The `--audit-allows` mode (and the per-crate gates) turn
//! allow hygiene into findings of its own: **ALW001** an allow names a
//! rule it no longer suppresses (stale), **ALW002** an allow carries no
//! reason.
//!
//! # Two-pass architecture
//!
//! TF001–TF008 are per-file token-pattern rules. TF009–TF013 are
//! *workspace-aware*: a first pass lexes every file and builds a
//! lightweight item/import index per crate (mod/use/fn/struct/enum/
//! impl spans, `HashMap`/`HashSet`-typed field and binding names,
//! `use ... as` aliases of the hash containers, and the crate's typed
//! error types); a second pass runs the cross-file rules over each
//! file's tokens with the whole-crate index in scope. That is how an
//! iteration in `rack.rs` over a map *declared* in `engine.rs` is
//! caught without type inference — and why the index needs no `syn`
//! (the registry is unavailable; the hand-rolled lexer carries
//! line:column spans, which is all the rules need).
//!
//! TF015 (a dead `pub mod`) and TF016 (a `pub fn` nothing outside its
//! crate names) need the whole workspace: only [`check_workspace`] runs
//! them, and it also lexes `tests/`, `benches/`, `examples/` and
//! `perfbench/src/` for references.
//!
//! Run it as `cargo run -p tflint -- check [--format json]
//! [--audit-allows]`, or let the per-crate [`gate!`] tests run it under
//! plain `cargo test`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::Path;

use serde::Value;

/// Rule IDs with one-line descriptions, for `--help`-style output.
pub const RULES: &[(&str, &str)] = &[
    ("TF001", "no wall-clock (std::time::Instant/SystemTime) in simulation crates"),
    ("TF002", "no entropy-seeded or ad-hoc-seeded RNG (thread_rng/from_entropy/OsRng/seed_from_u64) outside simkit::rng"),
    ("TF003", "no bare u64/f64 parameters with unit-implying names in public APIs"),
    ("TF004", "no unwrap()/expect()/panic! in non-test datapath code"),
    ("TF005", "no truncating `as` casts on time/credit/byte values"),
    ("TF006", "no float ==/!= comparisons in stats/bandwidth code"),
    ("TF007", "no wall-clock reads (Instant::now/SystemTime::now/UNIX_EPOCH) in simulation crates, tests included"),
    ("TF008", "no unwrap()/expect() in failure-recovery modules (chaos/recovery/retry files, any crate)"),
    ("TF009", "no iteration over HashMap/HashSet in deterministic crates (use BTreeMap/BTreeSet, an index-keyed Vec, or an explicit sort; keyed lookup stays allowed)"),
    ("TF010", "no static mut/thread_local!/RefCell-style interior mutability in sim crates outside simkit::{sweep, partition}"),
    ("TF011", "no std::sync primitives (Mutex/RwLock/Condvar/atomics/mpsc) outside simkit::{sweep, partition}"),
    ("TF012", "no order-sensitive float accumulation (sum/product/fold) over unordered hash collections"),
    ("TF013", "no public fallible &mut self API returning bare bool/Option<()> where the crate defines a typed error"),
    ("TF014", "no println!/eprintln!/print!/eprint! in simulation crate library code (examples and benches own the console; observations export through the telemetry registry or the journal)"),
    ("TF015", "no file-backed `pub mod` in a crate root that nothing outside its own files names, by a path through it or a name the root re-exports from it (workspace runs only)"),
    ("TF016", "no library `pub fn`/`pub const fn` (methods included) whose name no token outside its crate's src/ spells: narrow it to pub(crate), delete it, or allow it with a reason (workspace runs only)"),
];

/// Rules only a whole-workspace run can decide: the per-crate gate
/// neither runs them nor reports their allows as stale.
const WORKSPACE_RULES: &[&str] = &["TF015", "TF016"];

/// Allow-audit rule IDs (reported by `--audit-allows` and the gates).
pub const AUDIT_RULES: &[(&str, &str)] = &[
    ("ALW001", "tflint::allow names a rule it no longer suppresses (stale allow)"),
    ("ALW002", "tflint::allow carries no reason after the rule list"),
];

/// Version of the JSON diagnostic schema emitted by [`render_json`].
/// Bump only on breaking shape changes; CI parses this output.
pub const JSON_SCHEMA_VERSION: u64 = 1;

/// One lint finding, anchored to a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule ID (`TF001`..`TF016`, or `ALW001`/`ALW002` from the audit).
    pub rule: &'static str,
    /// Path of the offending file, as given to the checker.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}:{}: {}",
            self.rule, self.file, self.line, self.col, self.message
        )
    }
}

impl Diagnostic {
    /// The stable [`Value`]-tree shape of one diagnostic: a map with
    /// exactly the keys `rule`, `file`, `line`, `col`, `message`.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("rule".into(), Value::Str(self.rule.into())),
            ("file".into(), Value::Str(self.file.clone())),
            ("line".into(), Value::UInt(u64::from(self.line))),
            ("col".into(), Value::UInt(u64::from(self.col))),
            ("message".into(), Value::Str(self.message.clone())),
        ])
    }
}

/// Renders diagnostics one per line (empty string when clean).
pub fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(Diagnostic::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// The machine-readable report as a [`Value`] tree. Top-level keys are
/// schema-stable: `schema`, `count`, `diagnostics`.
pub fn diagnostics_value(diags: &[Diagnostic]) -> Value {
    Value::Map(vec![
        ("schema".into(), Value::UInt(JSON_SCHEMA_VERSION)),
        ("count".into(), Value::UInt(diags.len() as u64)),
        (
            "diagnostics".into(),
            Value::Seq(diags.iter().map(Diagnostic::to_value).collect()),
        ),
    ])
}

/// Renders the report as one JSON document (for `--format json`).
pub fn render_json(diags: &[Diagnostic]) -> String {
    // The vendored writer is infallible for a `Value` tree.
    serde_json::to_string(&diagnostics_value(diags)).unwrap_or_else(|_| "{}".to_string())
}

// ------------------------------------------------------------------ lexer

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ident,
    Punct,
    Str,
    Char,
    Int,
    Float,
    Lifetime,
}

#[derive(Debug, Clone)]
struct Tok {
    kind: Kind,
    text: String,
    line: u32,
    col: u32,
}

/// A `// tflint::allow(RULE, ...): reason` comment: the rules it names,
/// the line it sits on, and the reason text after the rule list. It
/// suppresses findings on its own line and the next.
#[derive(Debug, Clone)]
struct Allow {
    line: u32,
    col: u32,
    rules: Vec<String>,
    reason: Option<String>,
}

struct Lexed {
    toks: Vec<Tok>,
    allows: Vec<Allow>,
    /// The file's Rust doc examples (fenced blocks in `///` and `//!`
    /// comments): the line of each closing fence, and the code.
    doc_blocks: Vec<(u32, String)>,
}

const TWO_CHAR_OPS: &[&str] = &[
    "==", "!=", "<=", ">=", "=>", "->", "&&", "||", "..", "::", "<<", ">>",
];

fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut allows = Vec::new();
    let mut doc_blocks = Vec::new();
    // Inside a fenced doc block: whether rustdoc compiles it, and its code.
    let mut fence: Option<(bool, String)> = None;
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! advance {
        ($n:expr) => {{
            let n = $n;
            for _ in 0..n {
                if bytes.get(i) == Some(&b'\n') {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        let (tline, tcol) = (line, col);

        // Whitespace.
        if b.is_ascii_whitespace() {
            advance!(1);
            continue;
        }

        // Line comments (also the allow channel).
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
            let comment = &src[i..end];
            if let Some(a) = parse_allow(comment, tline, tcol) {
                allows.push(a);
            }
            let doc = comment.strip_prefix("///").or_else(|| comment.strip_prefix("//!"));
            if let Some(doc) = doc.filter(|_| !comment.starts_with("////")) {
                if let Some(info) = doc.trim_start().strip_prefix("```") {
                    match fence.take() {
                        Some((true, code)) => doc_blocks.push((tline, code)),
                        Some((false, _)) => {}
                        None => {
                            let rust = info.split(',').all(|a| {
                                let a = a.trim();
                                matches!(a, "" | "rust" | "no_run" | "should_panic")
                                    || a.starts_with("edition")
                            });
                            fence = Some((rust, String::new()));
                        }
                    }
                } else if let Some((true, code)) = fence.as_mut() {
                    code.push_str(doc);
                    code.push('\n');
                }
            }
            advance!(end - i);
            continue;
        }

        // Block comments (nested).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 1;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            advance!(j - i);
            continue;
        }

        // Raw strings and byte strings: r"..", r#".."#, br"..", b"..".
        if b == b'r' || b == b'b' {
            if let Some(len) = raw_string_len(&src[i..]) {
                toks.push(Tok {
                    kind: Kind::Str,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                });
                advance!(len);
                continue;
            }
        }

        // Plain strings.
        if b == b'"' {
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            toks.push(Tok {
                kind: Kind::Str,
                text: String::new(),
                line: tline,
                col: tcol,
            });
            advance!(j - i);
            continue;
        }

        // Lifetimes vs char literals.
        if b == b'\'' {
            let next = bytes.get(i + 1).copied().unwrap_or(0);
            let after = bytes.get(i + 2).copied().unwrap_or(0);
            if (next.is_ascii_alphabetic() || next == b'_') && after != b'\'' {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: Kind::Lifetime,
                    text: src[i..j].to_string(),
                    line: tline,
                    col: tcol,
                });
                advance!(j - i);
            } else {
                let mut j = i + 1;
                while j < bytes.len() {
                    match bytes[j] {
                        b'\\' => j += 2,
                        b'\'' => {
                            j += 1;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                toks.push(Tok {
                    kind: Kind::Char,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                });
                advance!(j - i);
            }
            continue;
        }

        // Numbers. `1..120` stops before the `..`; `0.5` and `1e12` are
        // floats; `0xAE` stays an integer despite the hex `E`.
        if b.is_ascii_digit() {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            if bytes.get(j) == Some(&b'.') && bytes.get(j + 1).is_some_and(u8::is_ascii_digit) {
                j += 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
            }
            let text = &src[i..j];
            let is_float = !text.starts_with("0x")
                && !text.starts_with("0b")
                && !text.starts_with("0o")
                && (text.contains('.') || text.contains(['e', 'E']));
            toks.push(Tok {
                kind: if is_float { Kind::Float } else { Kind::Int },
                text: text.to_string(),
                line: tline,
                col: tcol,
            });
            advance!(j - i);
            continue;
        }

        // Identifiers and keywords.
        if b.is_ascii_alphabetic() || b == b'_' {
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            toks.push(Tok {
                kind: Kind::Ident,
                text: src[i..j].to_string(),
                line: tline,
                col: tcol,
            });
            advance!(j - i);
            continue;
        }

        // Multi-char operators, longest first.
        if src[i..].starts_with("..=") {
            toks.push(Tok {
                kind: Kind::Punct,
                text: "..=".into(),
                line: tline,
                col: tcol,
            });
            advance!(3);
            continue;
        }
        if let Some(op) = TWO_CHAR_OPS.iter().find(|op| src[i..].starts_with(**op)) {
            toks.push(Tok {
                kind: Kind::Punct,
                text: (*op).to_string(),
                line: tline,
                col: tcol,
            });
            advance!(2);
            continue;
        }

        toks.push(Tok {
            kind: Kind::Punct,
            text: (b as char).to_string(),
            line: tline,
            col: tcol,
        });
        advance!(1);
    }

    Lexed {
        toks,
        allows,
        doc_blocks,
    }
}

/// Length of a raw/byte string literal starting at `s`, if one starts
/// here: `r"…"`, `r#"…"#`, `br"…"`, or `b"…"`.
fn raw_string_len(s: &str) -> Option<usize> {
    let after_b = s.strip_prefix('b');
    let rest = after_b.unwrap_or(s);
    let after_r = rest.strip_prefix('r');
    let had_r = after_r.is_some();
    let rest = after_r.unwrap_or(rest);
    let hashes = rest.bytes().take_while(|&c| c == b'#').count();
    let rest = &rest[hashes..];
    if !rest.starts_with('"') {
        return None;
    }
    if !had_r && (hashes > 0 || after_b.is_none()) {
        // `b#...` is not a literal, and a bare `"` is handled elsewhere.
        return None;
    }
    let prefix_len = s.len() - rest.len() + 1;
    let body = &rest[1..];
    if had_r {
        let closer = format!("\"{}", "#".repeat(hashes));
        let end = body.find(&closer)?;
        Some(prefix_len + end + closer.len())
    } else {
        // b"...": escapes apply.
        let bytes = body.as_bytes();
        let mut j = 0;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'"' => return Some(prefix_len + j + 1),
                _ => j += 1,
            }
        }
        None
    }
}

fn parse_allow(comment: &str, line: u32, col: u32) -> Option<Allow> {
    // The marker must open the comment (`// tflint::allow(...)`), so
    // prose that merely *mentions* the syntax is not an allow.
    let body = comment
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let rest = body.strip_prefix("tflint::allow(")?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let trailer = rest[close + 1..]
        .trim_start_matches([':', '-', '—', ' ', '\t'])
        .trim();
    let reason = if trailer.is_empty() {
        None
    } else {
        Some(trailer.to_string())
    };
    Some(Allow {
        line,
        col,
        rules,
        reason,
    })
}

// --------------------------------------------------------- test-code map

/// Marks the token ranges belonging to `#[cfg(test)]` / `#[test]` items
/// (the attribute, the item header, and its braced body).
fn test_code_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1;
            let mut saw_test = false;
            let mut saw_cfg = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "cfg" => saw_cfg = true,
                    "test" => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            // `#[test]` alone, or `test` appearing inside a `#[cfg(...)]`
            // predicate (covers `#[cfg(test)]` and `#[cfg(all(test, ..))]`).
            let is_bare_test = saw_test && !saw_cfg && j == i + 4;
            if saw_test && (saw_cfg || is_bare_test) {
                // Skip any further attributes between this one and the item.
                let mut k = j;
                while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
                    let mut d = 1;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        match toks[k].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // Find the item's body (first top-level `{`) or `;`.
                let mut d = 0i32;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "(" | "[" => d += 1,
                        ")" | "]" => d -= 1,
                        ";" if d == 0 => {
                            k += 1;
                            break;
                        }
                        "{" if d == 0 => {
                            let mut bd = 1;
                            k += 1;
                            while k < toks.len() && bd > 0 {
                                match toks[k].text.as_str() {
                                    "{" => bd += 1,
                                    "}" => bd -= 1,
                                    _ => {}
                                }
                                k += 1;
                            }
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take(k).skip(i) {
                    *m = true;
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

// -------------------------------------------------------- workspace index

/// The kind of a top-level-ish item recorded by the index pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name` (inline or file).
    Mod,
    /// `use path::to::thing [as alias];` — `name` is the full path text.
    Use,
    /// `fn name`.
    Fn,
    /// `struct Name`.
    Struct,
    /// `enum Name`.
    Enum,
    /// `trait Name`.
    Trait,
    /// `impl [Trait for] Type` — `name` is the type text.
    Impl,
}

/// One indexed item: enough span information to anchor cross-file
/// rules without a full parse.
#[derive(Debug, Clone)]
pub struct Item {
    /// What kind of item this is.
    pub kind: ItemKind,
    /// The item's name (for `Use`, the imported path).
    pub name: String,
    /// 1-based line of the introducing keyword.
    pub line: u32,
    /// Whether the item is `pub` (never true for `Impl`).
    pub is_pub: bool,
}

/// Per-crate facts derived from pass one, consumed by the cross-file
/// rules in pass two.
#[derive(Debug, Default, Clone)]
struct CrateIndex {
    /// Field/binding names declared with a `HashMap`/`HashSet` type
    /// anywhere in the crate (TF009/TF012 receiver set).
    hash_named: BTreeSet<String>,
    /// Local names the hash containers are visible under: `HashMap`,
    /// `HashSet`, plus any `use ... as Alias` renames.
    hash_types: BTreeSet<String>,
    /// Public typed error types (`pub struct/enum *Error`) the crate
    /// defines (TF013 only fires where one exists).
    error_types: BTreeSet<String>,
}

/// The cross-crate index built by pass one: per crate, the item list
/// per file and the derived rule facts.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    crates: BTreeMap<String, CrateIndex>,
    /// Items per (crate, file), in source order.
    items: BTreeMap<(String, String), Vec<Item>>,
}

impl WorkspaceIndex {
    /// The indexed items of one file, if it was scanned.
    pub fn items(&self, crate_name: &str, rel_path: &str) -> Option<&[Item]> {
        self.items
            .get(&(crate_name.to_string(), rel_path.to_string()))
            .map(Vec::as_slice)
    }

    /// Names known to be `HashMap`/`HashSet`-typed anywhere in `crate_name`.
    pub fn hash_named(&self, crate_name: &str) -> impl Iterator<Item = &str> {
        self.crates
            .get(crate_name)
            .into_iter()
            .flat_map(|c| c.hash_named.iter().map(String::as_str))
    }

    /// Typed error types `crate_name` defines.
    pub fn error_types(&self, crate_name: &str) -> impl Iterator<Item = &str> {
        self.crates
            .get(crate_name)
            .into_iter()
            .flat_map(|c| c.error_types.iter().map(String::as_str))
    }

    fn crate_index(&self, crate_name: &str) -> Option<&CrateIndex> {
        self.crates.get(crate_name)
    }
}

/// One lexed file staged between the index pass and the rule pass.
struct Unit {
    crate_name: String,
    /// The crate's name in paths (`thymesisflow_core` for `crates/core`).
    crate_ident: String,
    rel_path: String,
    /// Whether the rules run on this file; the others are lexed only for
    /// the references TF015 and TF016 count.
    lint: bool,
    toks: Vec<Tok>,
    allows: Vec<Allow>,
    test_mask: Vec<bool>,
    /// The tokens of the file's Rust doc examples, which rustdoc
    /// compiles as crates of their own (TF016 counts them as outside),
    /// less the name of the function each example documents.
    doc_toks: Vec<Tok>,
}

impl Unit {
    fn new(crate_name: &str, rel_path: &str, source: &str) -> Unit {
        let Lexed {
            toks,
            allows,
            doc_blocks,
        } = lex(source);
        let test_mask = test_code_mask(&toks);
        let mut doc_toks = Vec::new();
        for (end, code) in doc_blocks {
            // The item after the example: `[#[..]]* [pub[(..)]] [const] fn f`.
            let mut item = toks.iter().skip_while(|t| t.line <= end);
            let mut depth = 0;
            let documented = loop {
                let Some(t) = item.next() else { break None };
                match t.text.as_str() {
                    "#" | "pub" | "const" if depth == 0 => {}
                    "[" | "(" => depth += 1,
                    "]" | ")" => depth -= 1,
                    "fn" if depth == 0 => break item.next().map(|n| n.text.clone()),
                    _ if depth > 0 => {}
                    _ => break None,
                }
            };
            let own = |t: &Tok| Some(&t.text) == documented.as_ref();
            doc_toks.extend(lex(&code).toks.into_iter().filter(|t| !own(t)));
        }
        Unit {
            crate_name: crate_name.to_string(),
            crate_ident: crate_name.replace('-', "_"),
            rel_path: rel_path.to_string(),
            lint: true,
            toks,
            allows,
            test_mask,
            doc_toks,
        }
    }
}

/// Pass one: scan each unit's tokens for items and the derived facts.
fn build_index(units: &[Unit]) -> WorkspaceIndex {
    let mut idx = WorkspaceIndex::default();
    let units: Vec<&Unit> = units.iter().filter(|u| u.lint).collect();
    for &unit in &units {
        let entry = idx.crates.entry(unit.crate_name.clone()).or_default();
        entry.hash_types.insert("HashMap".to_string());
        entry.hash_types.insert("HashSet".to_string());
        let items = scan_items(&unit.toks);
        // `use std::collections::HashMap as Map` makes `Map` a hash
        // container name inside this crate.
        for item in &items {
            if item.kind == ItemKind::Use {
                if let Some((path, alias)) = item.name.rsplit_once(" as ") {
                    if path.ends_with("HashMap") || path.ends_with("HashSet") {
                        entry.hash_types.insert(alias.trim().to_string());
                    }
                }
            }
            if matches!(item.kind, ItemKind::Struct | ItemKind::Enum)
                && item.is_pub
                && item.name.ends_with("Error")
            {
                entry.error_types.insert(item.name.clone());
            }
        }
        idx.items
            .insert((unit.crate_name.clone(), unit.rel_path.clone()), items);
    }
    // Hash-typed names need the alias set complete first.
    for &unit in &units {
        let hash_types = idx
            .crates
            .get(&unit.crate_name)
            .map(|c| c.hash_types.clone())
            .unwrap_or_default();
        let named = scan_hash_named(&unit.toks, &hash_types);
        if let Some(entry) = idx.crates.get_mut(&unit.crate_name) {
            entry.hash_named.extend(named);
        }
    }
    idx
}

/// Collects mod/use/fn/struct/enum/trait/impl items from a token stream.
fn scan_items(toks: &[Tok]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            i += 1;
            continue;
        }
        let is_pub = i > 0
            && (toks[i - 1].text == "pub"
                || (toks[i - 1].text == ")" && pub_paren_before(toks, i)));
        let kind = match t.text.as_str() {
            "mod" => Some(ItemKind::Mod),
            "use" => Some(ItemKind::Use),
            "fn" => Some(ItemKind::Fn),
            "struct" => Some(ItemKind::Struct),
            "enum" => Some(ItemKind::Enum),
            "trait" => Some(ItemKind::Trait),
            "impl" => Some(ItemKind::Impl),
            _ => None,
        };
        let Some(kind) = kind else {
            i += 1;
            continue;
        };
        match kind {
            ItemKind::Use => {
                // Join the path up to `;` (or a brace group) into one string.
                let mut j = i + 1;
                let mut path = String::new();
                while j < toks.len() && toks[j].text != ";" && toks[j].text != "{" {
                    if toks[j].text == "as" {
                        path.push_str(" as ");
                    } else {
                        path.push_str(&toks[j].text);
                    }
                    j += 1;
                }
                items.push(Item {
                    kind,
                    name: path,
                    line: t.line,
                    is_pub,
                });
                i = j;
            }
            ItemKind::Impl => {
                // `impl<T> Trait for Type {` / `impl Type {` — record the
                // text between `impl` and the body brace.
                let mut j = i + 1;
                let mut name = String::new();
                while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                    if !name.is_empty() {
                        name.push(' ');
                    }
                    name.push_str(&toks[j].text);
                    j += 1;
                }
                items.push(Item {
                    kind,
                    name,
                    line: t.line,
                    is_pub: false,
                });
                i = j;
            }
            _ => {
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == Kind::Ident {
                        items.push(Item {
                            kind,
                            name: name_tok.text.clone(),
                            line: t.line,
                            is_pub,
                        });
                    }
                }
                i += 1;
            }
        }
        i += 1;
    }
    items
}

/// Whether the `)` at `toks[i-1]` closes a `pub(...)` qualifier.
fn pub_paren_before(toks: &[Tok], i: usize) -> bool {
    let mut j = i - 1;
    let mut depth = 0;
    while j > 0 {
        match toks[j].text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return j > 0 && toks[j - 1].text == "pub";
                }
            }
            _ => {}
        }
        j -= 1;
    }
    false
}

/// Field/binding names with a hash-container type: `name: HashMap<..>`
/// (fields, params, typed lets) and `let name = HashMap::new()`.
fn scan_hash_named(toks: &[Tok], hash_types: &BTreeSet<String>) -> BTreeSet<String> {
    let mut named = BTreeSet::new();
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != Kind::Ident || !hash_types.contains(&tok.text) {
            continue;
        }
        // `name : [path ::]* Hash… <` — walk back over the path.
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" {
            j -= 2;
        }
        if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].kind == Kind::Ident {
            named.insert(toks[j - 2].text.clone());
            continue;
        }
        // `let [mut] name = Hash… :: new|with_capacity|from (`.
        if j >= 2 && toks[j - 1].text == "=" && toks[j - 2].kind == Kind::Ident {
            let target = &toks[j - 2];
            let let_pos = j.checked_sub(3).and_then(|k| toks.get(k));
            let is_let = let_pos.is_some_and(|t| t.text == "let" || t.text == "mut");
            let constructed = toks.get(i + 1).is_some_and(|t| t.text == "::");
            if is_let && constructed {
                named.insert(target.text.clone());
            }
        }
    }
    named
}

// ------------------------------------------------------------ rule scopes

/// Crates whose simulated time must stay virtual (TF001) and whose
/// state must be deterministically ordered / free of hidden shared
/// mutability (TF009–TF013).
const SIM_CRATES: &[&str] = &[
    "simkit",
    "netsim",
    "llc",
    "opencapi",
    "rmmu",
    "routing",
    "hostsim",
    "ctrlplane",
    "core",
    "workloads",
    "dcsim",
    "thymesisflow",
];

/// Crates whose public APIs must use unit newtypes (TF003).
const UNIT_API_CRATES: &[&str] = &["simkit", "llc", "netsim", "routing"];

/// Datapath crates where panics are forbidden outside tests (TF004).
const DATAPATH_CRATES: &[&str] = &["llc", "routing", "rmmu", "opencapi", "netsim"];

/// The core crate's fabric module carries the flit-level datapath, so
/// TF003 and TF004 extend to it even though `core` as a whole (rack
/// orchestration, models) stays out of scope.
fn fabric_scoped(crate_name: &str, rel_path: &str) -> bool {
    crate_name == "core" && rel_path.contains("fabric")
}

/// Failure-recovery modules where panics are forbidden regardless of
/// crate (TF008). A recovery path that panics converts the typed fault
/// it existed to deliver into silence — the exact failure mode the
/// chaos harness exists to rule out. Scoped by file name so the rule
/// follows the code wherever recovery machinery lives.
fn recovery_scoped(rel_path: &str) -> bool {
    let file = rel_path.rsplit('/').next().unwrap_or(rel_path);
    file.contains("chaos") || file.contains("recovery") || file.contains("retry")
}

/// The modules blessed to hold interior mutability and `std::sync`
/// primitives (TF010/TF011): the parallel sweep harness and the
/// conservative partition runner. Both prove 1-vs-N-worker bit-equality
/// and therefore own all cross-thread machinery; everything else must
/// route parallelism through them.
fn sync_blessed(crate_name: &str, rel_path: &str) -> bool {
    crate_name == "simkit"
        && (rel_path.ends_with("sweep.rs") || rel_path.ends_with("partition.rs"))
}

/// Crates with timing/credit arithmetic where `as` casts are audited (TF005).
const CAST_CRATES: &[&str] = &["llc", "simkit"];

/// Crates with stats/bandwidth float math (TF006). TF012 needs no such
/// list: it anchors on TF009 iteration sites, which already carry the
/// sim-crate scope.
const FLOAT_CMP_CRATES: &[&str] = &["simkit", "netsim", "dcsim", "workloads", "bench"];

fn in_scope(list: &[&str], crate_name: &str) -> bool {
    list.contains(&crate_name)
}

/// Methods whose call visits a collection in storage order (TF009).
/// Keyed access (`get`/`insert`/`remove`/`entry`/`contains_key`) is
/// deliberately absent: O(1) lookup is the reason HashMap would be
/// chosen, and it is order-free.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// `std::sync` primitive type/function names (TF011). `Arc` is absent
/// on purpose: shared immutable payloads (LLC frames) are deterministic;
/// it is synchronization that smuggles in scheduling order.
const SYNC_PRIMITIVES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "LazyLock",
    "mpsc",
];

/// Interior-mutability cells (TF010). `static mut` and `thread_local!`
/// are matched structurally in the rule itself.
const CELL_TYPES: &[&str] = &["RefCell", "Cell", "UnsafeCell", "OnceCell", "LazyCell"];

/// Query-style name prefixes exempt from TF013: a `bool` from these is
/// an answer, not a swallowed error. `chance`/`flip`/`sample` cover
/// random samplers (a Bernoulli draw is data, not a success flag).
const QUERY_PREFIXES: &[&str] = &[
    "is_", "has_", "contains", "can_", "should_", "needs_", "was_", "matches", "chance", "flip",
    "sample",
];

// ----------------------------------------------------------------- rules

/// Lints one source file as it would appear in crate `crate_name` at
/// `rel_path`. This is the fixture-test entry point: rules are scoped by
/// crate name exactly as in a workspace run, and the cross-file index is
/// built from this single file.
pub fn check_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<Diagnostic> {
    check_sources(&[(crate_name, rel_path, source)])
}

/// Lints a set of files with a shared workspace index — the multi-file
/// fixture entry point. A `HashMap` field declared in one file is
/// flagged when iterated from another file of the same crate.
pub fn check_sources(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
    let units: Vec<Unit> = files
        .iter()
        .map(|(c, p, s)| Unit::new(c, p, s))
        .collect();
    let (diags, _) = run_units(&units, false);
    diags
}

/// Lints `files` as a workspace run does, TF015 and TF016 included;
/// `references` (`tests/`, `benches/`, `examples/` files) are lexed only
/// for the names those rules count. A linted path runs from the crate's `src/`.
pub fn check_workspace_sources(
    files: &[(&str, &str, &str)],
    references: &[(&str, &str, &str)],
) -> Vec<Diagnostic> {
    run_units(&workspace_units(files, references), true).0
}

/// Audits the allow comments of `files` as a workspace run does, so an
/// allow for TF015 or TF016 that suppresses nothing is stale (ALW001).
pub fn audit_workspace_sources(
    files: &[(&str, &str, &str)],
    references: &[(&str, &str, &str)],
) -> Vec<Diagnostic> {
    run_units(&workspace_units(files, references), true).1
}

fn workspace_units(files: &[(&str, &str, &str)], references: &[(&str, &str, &str)]) -> Vec<Unit> {
    files
        .iter()
        .map(|(c, p, s)| Unit::new(c, p, s))
        .chain(references.iter().map(|(c, p, s)| Unit {
            lint: false,
            ..Unit::new(c, p, s)
        }))
        .collect()
}

/// Audits the allow comments of a set of files: stale allows (naming a
/// rule that suppresses nothing) and reasonless allows become ALW00x
/// diagnostics.
pub fn audit_sources(files: &[(&str, &str, &str)]) -> Vec<Diagnostic> {
    let units: Vec<Unit> = files
        .iter()
        .map(|(c, p, s)| Unit::new(c, p, s))
        .collect();
    let (_, audit) = run_units(&units, false);
    audit
}

/// Builds the [`WorkspaceIndex`] for a set of files without running any
/// rules — the index-inspection entry point for tests and tooling.
pub fn index_sources(files: &[(&str, &str, &str)]) -> WorkspaceIndex {
    let units: Vec<Unit> = files
        .iter()
        .map(|(c, p, s)| Unit::new(c, p, s))
        .collect();
    build_index(&units)
}

/// Two-pass driver: index, per-unit rules, allow application, audit.
/// `workspace` adds the [`WORKSPACE_RULES`]. Returns (rule diagnostics
/// after allows, allow-audit diagnostics).
fn run_units(units: &[Unit], workspace: bool) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let idx = build_index(units);
    let cross = if workspace {
        [check_tf015(units), check_tf016(units)].concat()
    } else {
        Vec::new()
    };
    let mut kept = Vec::new();
    let mut audit = Vec::new();
    for (ui, unit) in units.iter().enumerate().filter(|(_, u)| u.lint) {
        let mut raw = check_unit(unit, &idx);
        raw.extend(cross.iter().filter(|(at, _)| *at == ui).map(|(_, d)| d.clone()));
        // Track, per allow comment and per named rule, whether it
        // suppressed at least one raw finding.
        let mut used = vec![vec![false; 0]; unit.allows.len()];
        for (ai, a) in unit.allows.iter().enumerate() {
            used[ai] = vec![false; a.rules.len()];
        }
        for d in raw {
            let mut suppressed = false;
            for (ai, a) in unit.allows.iter().enumerate() {
                if a.line == d.line || a.line + 1 == d.line {
                    for (ri, r) in a.rules.iter().enumerate() {
                        if r == d.rule {
                            used[ai][ri] = true;
                            suppressed = true;
                        }
                    }
                }
            }
            if !suppressed {
                kept.push(d);
            }
        }
        for (ai, a) in unit.allows.iter().enumerate() {
            for (ri, r) in a.rules.iter().enumerate() {
                let undecided = !workspace && WORKSPACE_RULES.contains(&r.as_str());
                if !used[ai][ri] && !undecided {
                    audit.push(Diagnostic {
                        rule: "ALW001",
                        file: unit.rel_path.clone(),
                        line: a.line,
                        col: a.col,
                        message: format!(
                            "stale allow: `{r}` no longer fires on line {} or {}; delete the allow (or this entry from its rule list)",
                            a.line,
                            a.line + 1
                        ),
                    });
                }
            }
            if a.reason.is_none() {
                audit.push(Diagnostic {
                    rule: "ALW002",
                    file: unit.rel_path.clone(),
                    line: a.line,
                    col: a.col,
                    message: format!(
                        "allow for {} carries no reason; append `: why this is sound`",
                        a.rules.join(", ")
                    ),
                });
            }
        }
    }
    kept.sort_by(|a, b| (a.file.clone(), a.line, a.col, a.rule).cmp(&(b.file.clone(), b.line, b.col, b.rule)));
    audit.sort_by(|a, b| (a.file.clone(), a.line, a.col, a.rule).cmp(&(b.file.clone(), b.line, b.col, b.rule)));
    (kept, audit)
}

/// Pass two for one file: every rule, no allow filtering (the caller
/// applies allows so it can track staleness).
fn check_unit(unit: &Unit, idx: &WorkspaceIndex) -> Vec<Diagnostic> {
    let crate_name = unit.crate_name.as_str();
    let rel_path = unit.rel_path.as_str();
    let toks = &unit.toks;
    let test_mask = &unit.test_mask;
    let mut diags = Vec::new();

    let push = |diags: &mut Vec<Diagnostic>, rule: &'static str, tok: &Tok, message: String| {
        diags.push(Diagnostic {
            rule,
            file: rel_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
        });
    };

    let is_rng_home = crate_name == "simkit" && rel_path.ends_with("src/rng.rs");
    let is_sync_home = sync_blessed(crate_name, rel_path);
    let crate_idx = idx.crate_index(crate_name);
    let empty_hash_named = BTreeSet::new();
    let hash_named = crate_idx.map_or(&empty_hash_named, |c| &c.hash_named);
    let empty_error_types = BTreeSet::new();
    let error_types = crate_idx.map_or(&empty_error_types, |c| &c.error_types);

    for (i, tok) in toks.iter().enumerate() {
        let in_test = test_mask[i];

        // TF001: wall-clock types.
        if in_scope(SIM_CRATES, crate_name)
            && !in_test
            && tok.kind == Kind::Ident
            && (tok.text == "Instant" || tok.text == "SystemTime")
        {
            push(
                &mut diags,
                "TF001",
                tok,
                format!(
                    "wall-clock type `{}` breaks simulation determinism; model time with `simkit::time::SimTime`",
                    tok.text
                ),
            );
        }

        // TF002: raw RNG construction outside simkit::rng. Entropy
        // sources break reproducibility outright; ad-hoc `seed_from_u64`
        // calls create streams the sweep harness cannot track, so both
        // route through `DetRng` (`split_stream` for per-point streams).
        if !is_rng_home
            && tok.kind == Kind::Ident
            && matches!(
                tok.text.as_str(),
                "thread_rng" | "from_entropy" | "OsRng" | "seed_from_u64"
            )
        {
            let message = if tok.text == "seed_from_u64" {
                "ad-hoc RNG seeding bypasses deterministic stream splitting; use `DetRng::split_stream(master_seed, stream)` instead".to_string()
            } else {
                format!(
                    "entropy-seeded RNG `{}` breaks reproducibility; derive a seeded stream from `simkit::rng::DetRng`",
                    tok.text
                )
            };
            push(&mut diags, "TF002", tok, message);
        }

        // TF004: panics in datapath library code.
        if (in_scope(DATAPATH_CRATES, crate_name) || fabric_scoped(crate_name, rel_path))
            && !in_test
            && tok.kind == Kind::Ident
        {
            let prev_dot = i > 0 && toks[i - 1].text == ".";
            let next = toks.get(i + 1).map(|t| t.text.as_str());
            if (tok.text == "unwrap" || tok.text == "expect") && prev_dot && next == Some("(") {
                push(
                    &mut diags,
                    "TF004",
                    tok,
                    format!(
                        "`.{}()` can panic mid-datapath; return a typed error (`LlcError`/`RouteError`) or justify with tflint::allow",
                        tok.text
                    ),
                );
            }
            if tok.text == "panic" && next == Some("!") {
                push(
                    &mut diags,
                    "TF004",
                    tok,
                    "`panic!` in datapath code aborts the whole simulation; return a typed error or justify with tflint::allow"
                        .to_string(),
                );
            }
        }

        // TF008: panics in failure-recovery modules. TF004 covers the
        // datapath crates and core::fabric; this extends the no-panic
        // rule to chaos/recovery/retry files in every other crate.
        if recovery_scoped(rel_path)
            && !(in_scope(DATAPATH_CRATES, crate_name) || fabric_scoped(crate_name, rel_path))
            && !in_test
            && tok.kind == Kind::Ident
            && (tok.text == "unwrap" || tok.text == "expect")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        {
            push(
                &mut diags,
                "TF008",
                tok,
                format!(
                    "`.{}()` in recovery code turns the typed fault it should deliver into a panic; propagate the error or justify with tflint::allow",
                    tok.text
                ),
            );
        }

        // TF005: truncating casts on unit-carrying values.
        if in_scope(CAST_CRATES, crate_name)
            && !in_test
            && tok.kind == Kind::Ident
            && tok.text == "as"
        {
            if let Some(target) = toks.get(i + 1) {
                let narrow = matches!(
                    target.text.as_str(),
                    "u8" | "u16" | "u32" | "i8" | "i16" | "i32"
                );
                let wide_int = matches!(
                    target.text.as_str(),
                    "u64" | "i64" | "usize" | "isize" | "u128" | "i128"
                );
                if narrow {
                    push(
                        &mut diags,
                        "TF005",
                        tok,
                        format!(
                            "narrowing `as {}` silently truncates; use `try_from` (or a widening `from`) so overflow is a checked error",
                            target.text
                        ),
                    );
                } else if wide_int && cast_source_is_unit_like(toks, i) {
                    push(
                        &mut diags,
                        "TF005",
                        tok,
                        format!(
                            "`as {}` on a time/credit/byte expression truncates toward zero; use a checked conversion helper",
                            target.text
                        ),
                    );
                }
            }
        }

        // TF007: wall-clock *reads*. TF001 bans the types in library
        // code; actual clock reads are banned even inside test code,
        // because tests pin deterministic-replay trajectories and a
        // wall-clock read invalidates the comparison. Telemetry and
        // span tracing must run off `SimTime` alone.
        if in_scope(SIM_CRATES, crate_name) && tok.kind == Kind::Ident {
            let clock_read = (tok.text == "Instant" || tok.text == "SystemTime")
                && toks.get(i + 1).is_some_and(|t| t.text == "::")
                && toks.get(i + 2).is_some_and(|t| t.text == "now");
            if clock_read || tok.text == "UNIX_EPOCH" {
                push(
                    &mut diags,
                    "TF007",
                    tok,
                    format!(
                        "wall-clock read `{}` breaks deterministic replay (even in tests); stamp with the event queue's `SimTime` instead",
                        if tok.text == "UNIX_EPOCH" {
                            "UNIX_EPOCH".to_string()
                        } else {
                            format!("{}::now", tok.text)
                        }
                    ),
                );
            }
        }

        // TF014: console writes in simulation library code. `src/` of a
        // sim crate is headless: anything worth reporting flows through
        // the telemetry registry, the congestion report, or the causal
        // journal, where it stays queryable and diffable. Examples and
        // benches (never linted here) own stdout.
        if in_scope(SIM_CRATES, crate_name)
            && !in_test
            && tok.kind == Kind::Ident
            && matches!(
                tok.text.as_str(),
                "println" | "eprintln" | "print" | "eprint"
            )
            && toks.get(i + 1).is_some_and(|t| t.text == "!")
        {
            push(
                &mut diags,
                "TF014",
                tok,
                format!(
                    "`{}!` writes to the console from simulation library code; record through the telemetry registry or the causal journal instead (examples and benches own stdout)",
                    tok.text
                ),
            );
        }

        // TF006: float equality.
        if in_scope(FLOAT_CMP_CRATES, crate_name)
            && !in_test
            && tok.kind == Kind::Punct
            && (tok.text == "==" || tok.text == "!=")
        {
            let float_neighbor = (i > 0 && toks[i - 1].kind == Kind::Float)
                || toks.get(i + 1).is_some_and(|t| t.kind == Kind::Float);
            if float_neighbor {
                push(
                    &mut diags,
                    "TF006",
                    tok,
                    format!(
                        "float `{}` is exact-bit comparison; compare against an epsilon or restructure the predicate",
                        tok.text
                    ),
                );
            }
        }

        // TF009/TF012: iteration over hash-ordered state. The receiver
        // set comes from the whole-crate index, so a map declared in
        // another file still trips the rule here.
        if in_scope(SIM_CRATES, crate_name)
            && !in_test
            && tok.kind == Kind::Ident
            && hash_named.contains(&tok.text)
        {
            let method_call = toks.get(i + 1).is_some_and(|t| t.text == ".")
                && toks
                    .get(i + 2)
                    .is_some_and(|t| ITER_METHODS.contains(&t.text.as_str()))
                && toks.get(i + 3).is_some_and(|t| t.text == "(");
            let for_loop_over = toks.get(i + 1).is_some_and(|t| t.text == "{")
                && for_in_before(toks, i);
            if method_call || for_loop_over {
                let how = if method_call {
                    format!("`.{}()`", toks[i + 2].text)
                } else {
                    "`for … in`".to_string()
                };
                push(
                    &mut diags,
                    "TF009",
                    tok,
                    format!(
                        "{how} over hash-ordered `{}` visits entries in nondeterministic order; use `BTreeMap`/`BTreeSet`, an index-keyed `Vec`, or collect-and-sort (keyed lookup stays allowed)",
                        tok.text
                    ),
                );
                if float_accumulation_after(toks, i) {
                    push(
                        &mut diags,
                        "TF012",
                        tok,
                        format!(
                            "float accumulation over hash-ordered `{}` re-associates rounding differently on every run; iterate a `BTreeMap`/sorted `Vec` (or sum a sorted copy)",
                            tok.text
                        ),
                    );
                }
            }
        }

        // TF010: interior mutability outside the blessed sweep harness.
        // Hidden cells turn "&self is read-only" into a lie, which is
        // exactly what the parallel engine's partitioning proof leans on.
        if in_scope(SIM_CRATES, crate_name) && !is_sync_home && !in_test && tok.kind == Kind::Ident
        {
            let static_mut = tok.text == "static"
                && toks.get(i + 1).is_some_and(|t| t.text == "mut");
            let thread_local =
                tok.text == "thread_local" && toks.get(i + 1).is_some_and(|t| t.text == "!");
            let cell = CELL_TYPES.contains(&tok.text.as_str());
            if static_mut || thread_local || cell {
                let what = if static_mut {
                    "`static mut`".to_string()
                } else if thread_local {
                    "`thread_local!`".to_string()
                } else {
                    format!("`{}`", tok.text)
                };
                push(
                    &mut diags,
                    "TF010",
                    tok,
                    format!(
                        "{what} hides mutable state from the component graph; thread state through `&mut self` (only `simkit::sweep` and `simkit::partition` are blessed to hold it)"
                    ),
                );
            }
        }

        // TF011: std::sync primitives outside the sweep harness. One
        // sanctioned parallel boundary exists; a stray Mutex anywhere
        // else means event order can depend on lock acquisition order.
        if in_scope(SIM_CRATES, crate_name)
            && !is_sync_home
            && !in_test
            && tok.kind == Kind::Ident
            && (SYNC_PRIMITIVES.contains(&tok.text.as_str()) || tok.text.starts_with("Atomic"))
        {
            push(
                &mut diags,
                "TF011",
                tok,
                format!(
                    "`{}` outside `simkit::sweep`/`simkit::partition` lets scheduling order leak into simulation state; route parallelism through the sweep harness or the partition runner",
                    tok.text
                ),
            );
        }
    }

    // TF003: bare u64/f64 params with unit-implying names in public APIs.
    if in_scope(UNIT_API_CRATES, crate_name) || fabric_scoped(crate_name, rel_path) {
        check_tf003(toks, test_mask, rel_path, &mut diags);
    }

    // TF013: public fallible APIs that swallow the error dimension.
    if in_scope(SIM_CRATES, crate_name) && !error_types.is_empty() {
        check_tf013(toks, test_mask, rel_path, error_types, &mut diags);
    }

    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

/// Whether token `i` sits in `for … in <expr>` position: scanning back,
/// we meet `in` (then eventually `for`) before any `;`, `{` or `}`.
fn for_in_before(toks: &[Tok], i: usize) -> bool {
    let start = i.saturating_sub(12);
    for t in toks[start..i].iter().rev() {
        match t.text.as_str() {
            "in" => return true,
            ";" | "{" | "}" | "=" => return false,
            _ => {}
        }
    }
    false
}

/// Whether the statement containing the hash-iteration site `i`
/// accumulates floats: a `sum`/`product`/`fold` call appears after the
/// site before the statement ends, with float evidence (an `f64`/`f32`
/// token or a float literal) anywhere in the statement — including
/// before the site, as in `let total: f64 = m.values().sum();`.
fn float_accumulation_after(toks: &[Tok], i: usize) -> bool {
    let mut saw_accum = false;
    let mut saw_float = false;
    // Backward to the statement start for float evidence only.
    for t in toks[i.saturating_sub(30)..i].iter().rev() {
        match t.text.as_str() {
            ";" | "{" | "}" => break,
            "f64" | "f32" => saw_float = true,
            _ => {}
        }
        if t.kind == Kind::Float {
            saw_float = true;
        }
    }
    // Forward to the statement end for the accumulator call (and any
    // trailing float evidence, e.g. `.sum::<f64>()`).
    let mut depth: i32 = 0;
    for t in toks.iter().skip(i).take(120) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" if depth == 0 => break,
            "sum" | "product" | "fold" => saw_accum = true,
            "f64" | "f32" => saw_float = true,
            _ => {}
        }
        if t.kind == Kind::Float {
            saw_float = true;
        }
        if saw_accum && saw_float {
            return true;
        }
    }
    saw_accum && saw_float
}

const UNIT_SUFFIXES: &[&str] = &["_ns", "_us", "_ps", "_bytes", "_gib", "_credits"];

fn check_tf003(toks: &[Tok], test_mask: &[bool], rel_path: &str, diags: &mut Vec<Diagnostic>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "pub" || test_mask[i] {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` and friends are not public API.
        if toks.get(j).is_some_and(|t| t.text == "(") {
            i += 1;
            continue;
        }
        while toks
            .get(j)
            .is_some_and(|t| matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern"))
        {
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "fn") {
            i += 1;
            continue;
        }
        j += 2; // past `fn` and the name
        // Skip generics.
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut depth = 1;
            j += 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).is_none_or(|t| t.text != "(") {
            i = j;
            continue;
        }
        // Walk the parameter list.
        let mut depth = 1;
        j += 1;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ => {}
            }
            if depth >= 1
                && toks[j].kind == Kind::Ident
                && UNIT_SUFFIXES.iter().any(|s| toks[j].text.ends_with(s))
                && toks.get(j + 1).is_some_and(|t| t.text == ":")
                && toks
                    .get(j + 2)
                    .is_some_and(|t| t.text == "u64" || t.text == "f64")
                && toks
                    .get(j + 3)
                    .is_some_and(|t| t.text == "," || t.text == ")")
            {
                diags.push(Diagnostic {
                    rule: "TF003",
                    file: rel_path.to_string(),
                    line: toks[j].line,
                    col: toks[j].col,
                    message: format!(
                        "public parameter `{}: {}` smuggles a unit in its name; take `SimTime`/`Rate`/a unit newtype instead",
                        toks[j].text,
                        toks[j + 2].text
                    ),
                });
            }
            j += 1;
        }
        i = j;
    }
}

/// TF013: `pub fn name(&mut self, ..) -> bool` (or `-> Option<()>`)
/// outside query-prefixed names, in a crate that already defines a typed
/// error. A bare `bool`/`Option<()>` from a mutating call collapses
/// every failure cause into one bit.
fn check_tf013(
    toks: &[Tok],
    test_mask: &[bool],
    rel_path: &str,
    error_types: &BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    let errs: Vec<&str> = error_types.iter().map(String::as_str).collect();
    let err_hint = errs.join("/");
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "pub" || test_mask[i] {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.text == "(") {
            // `pub(crate)` etc: not public API.
            i += 1;
            continue;
        }
        while toks
            .get(j)
            .is_some_and(|t| matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern"))
        {
            j += 1;
        }
        if toks.get(j).is_none_or(|t| t.text != "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(j + 1) else {
            break;
        };
        let name = name_tok.text.clone();
        j += 2;
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut depth = 1;
            j += 1;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
            }
        }
        if toks.get(j).is_none_or(|t| t.text != "(") {
            i = j;
            continue;
        }
        // Does the receiver mutate? `&mut self` (with optional lifetime).
        let mut k = j + 1;
        let mut mut_self = false;
        if toks.get(k).is_some_and(|t| t.text == "&") {
            k += 1;
            if toks.get(k).is_some_and(|t| t.kind == Kind::Lifetime) {
                k += 1;
            }
            if toks.get(k).is_some_and(|t| t.text == "mut")
                && toks.get(k + 1).is_some_and(|t| t.text == "self")
            {
                mut_self = true;
            }
        }
        // Skip to the closing paren of the parameter list.
        let mut depth = 1;
        let mut p = j + 1;
        while p < toks.len() && depth > 0 {
            match toks[p].text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ => {}
            }
            p += 1;
        }
        if mut_self
            && !QUERY_PREFIXES.iter().any(|q| name.starts_with(q))
            && toks.get(p).is_some_and(|t| t.text == "->")
        {
            let bare_bool = toks.get(p + 1).is_some_and(|t| t.text == "bool")
                && toks
                    .get(p + 2)
                    .is_some_and(|t| t.text == "{" || t.text == "where" || t.text == ";");
            let option_unit = toks.get(p + 1).is_some_and(|t| t.text == "Option")
                && toks.get(p + 2).is_some_and(|t| t.text == "<")
                && toks.get(p + 3).is_some_and(|t| t.text == "(")
                && toks.get(p + 4).is_some_and(|t| t.text == ")")
                && toks.get(p + 5).is_some_and(|t| t.text == ">");
            if bare_bool || option_unit {
                let shape = if bare_bool { "bool" } else { "Option<()>" };
                diags.push(Diagnostic {
                    rule: "TF013",
                    file: rel_path.to_string(),
                    line: name_tok.line,
                    col: name_tok.col,
                    message: format!(
                        "public fallible `{name}(&mut self, ..) -> {shape}` collapses every failure cause into one bit; return `Result<_, {err_hint}>` (the crate already defines it)"
                    ),
                });
            }
        }
        i = p;
    }
}

/// Looks back from an `as` cast for evidence the source expression
/// carries time/credit/byte units or is floating-point (either way, an
/// integer cast truncates). The scan stays within the statement.
fn cast_source_is_unit_like(toks: &[Tok], as_idx: usize) -> bool {
    let start = as_idx.saturating_sub(12);
    for t in toks[start..as_idx].iter().rev() {
        match t.text.as_str() {
            ";" | "{" | "}" => return false,
            "f64" | "f32" => return true,
            _ => {}
        }
        if t.kind == Kind::Float {
            return true;
        }
        if t.kind == Kind::Ident && !t.text.chars().any(|c| c.is_ascii_uppercase()) {
            let id = &t.text;
            if id.contains("time")
                || id.contains("credit")
                || id.contains("byte")
                || id.contains("flit")
                || UNIT_SUFFIXES.iter().any(|s| id.ends_with(s))
                || matches!(id.as_str(), "ps" | "ns" | "us")
            {
                return true;
            }
        }
    }
    false
}

// ------------------------------------------------------------------ TF015

/// Adjacent `a::b` path segments in a token stream. A grouped import
/// pairs each member with the group's prefix (`c::{m::X, n}` gives
/// `(c, m)`, `(m, X)` and `(c, n)`).
fn path_pairs(toks: &[&Tok]) -> BTreeSet<(String, String)> {
    let mut pairs = BTreeSet::new();
    // Per open brace, the segment an `a::{` group hangs off.
    let mut groups: Vec<Option<&str>> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let prev = |k: usize| i.checked_sub(k).map(|j| toks[j]);
        let after_path = match (prev(2), prev(1)) {
            (Some(a), Some(sep)) if a.kind == Kind::Ident && sep.text == "::" => {
                Some(a.text.as_str())
            }
            _ => None,
        };
        if t.kind == Kind::Punct && t.text == "{" {
            groups.push(after_path);
        } else if t.kind == Kind::Punct && t.text == "}" {
            groups.pop();
        } else if t.kind == Kind::Ident {
            let in_group = prev(1).is_some_and(|p| p.text == "{" || p.text == ",");
            let group = groups.last().copied().flatten().filter(|_| in_group);
            if let Some(a) = after_path.or(group) {
                pairs.insert((a.to_string(), t.text.clone()));
            }
        }
    }
    pairs
}

/// The path of a linted file below its crate's `src/`
/// (`fabric/engine.rs`; `lib.rs` is the crate root).
fn src_relative(rel_path: &str) -> &str {
    match rel_path.strip_prefix("src/") {
        Some(rest) => rest,
        None => rel_path.rfind("/src/").map_or(rel_path, |i| &rel_path[i + "/src/".len()..]),
    }
}

/// TF015: a crate root's file-backed `pub mod m;` that no file outside
/// `m`'s own names, by a path through `m` (`c::m::X`, `crate::m`,
/// `use c::{m::X}`, `m::X` in the root) or by a path to a name the root
/// re-exports from it (`pub use m::X` makes `c::X` count). The root's
/// `pub use` lines themselves do not count; `use c as d` renames do.
/// Findings come with the index of the root unit they sit in.
fn check_tf015(units: &[Unit]) -> Vec<(usize, Diagnostic)> {
    // Every name a crate is reached by: its own, plus `use c as d`.
    let mut reach: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for u in units {
        reach.entry(&u.crate_ident).or_default().insert(&u.crate_ident);
    }
    for w in units.iter().flat_map(|u| u.toks.windows(4)) {
        if w[0].text == "use" && w[2].text == "as" {
            if let Some(names) = reach.get_mut(w[1].text.as_str()) {
                names.insert(&w[3].text);
            }
        }
    }
    let pairs: Vec<_> = units
        .iter()
        .map(|u| path_pairs(&u.toks.iter().collect::<Vec<_>>()))
        .collect();
    let mut diags = Vec::new();
    for (ri, root) in units.iter().enumerate() {
        if !root.lint || src_relative(&root.rel_path) != "lib.rs" {
            continue;
        }
        // Split the root's `pub use` lines from the rest of it.
        let toks = &root.toks;
        let mut reexport = vec![false; toks.len()];
        for (i, w) in toks.windows(2).enumerate() {
            if w[0].text == "pub" && w[1].text == "use" {
                let end = toks[i..].iter().position(|t| t.text == ";");
                reexport[i..end.map_or(toks.len(), |n| i + n)].fill(true);
            }
        }
        let split = |re: bool| -> Vec<&Tok> {
            toks.iter().zip(&reexport).filter(|(_, &r)| r == re).map(|(t, _)| t).collect()
        };
        let (exports, body) = (path_pairs(&split(true)), path_pairs(&split(false)));
        let mut depth = 0;
        for (i, t) in toks.iter().enumerate() {
            if t.kind == Kind::Punct {
                depth += i32::from(t.text == "{") - i32::from(t.text == "}");
            }
            let [_, kw, name, semi, ..] = &toks[i..] else { break };
            let decl = [t, kw, semi].map(|t| t.text.as_str()) == ["pub", "mod", ";"];
            if !decl || depth != 0 || root.test_mask[i] {
                continue;
            }
            let m = name.text.as_str();
            let names: BTreeSet<&str> = std::iter::once(m)
                .chain(exports.iter().filter(|(a, _)| a == m).map(|(_, b)| b.as_str()))
                .collect();
            let named_by = |ui: usize, u: &Unit| {
                let rel = src_relative(&u.rel_path);
                let mut through = reach[root.crate_ident.as_str()].clone();
                if u.lint && u.crate_ident == root.crate_ident {
                    if rel == format!("{m}.rs") || rel.starts_with(&format!("{m}/")) {
                        return false;
                    }
                    through.insert("crate");
                    // `super` is the root from a top-level module file.
                    if !rel.trim_end_matches("/mod.rs").contains('/') {
                        through.insert("super");
                    }
                }
                ui != ri
                    && pairs[ui]
                        .iter()
                        .any(|(a, b)| through.contains(a.as_str()) && names.contains(b.as_str()))
            };
            let named = body.iter().any(|(a, b)| a == m || names.contains(b.as_str()))
                || units.iter().enumerate().any(|(ui, u)| named_by(ui, u));
            if !named {
                diags.push((ri, Diagnostic {
                    rule: "TF015",
                    file: root.rel_path.clone(),
                    line: kw.line,
                    col: kw.col,
                    message: format!(
                        "`pub mod {m};`: no file outside `{}::{m}`'s own names it (no path \
                         through it, no use of a name the root re-exports from it); delete \
                         the module, or move what is still wanted next to its caller",
                        root.crate_ident
                    ),
                }));
            }
        }
    }
    diags
}

// ------------------------------------------------------------------ TF016

/// Whether a linted file belongs to its crate's library target: every
/// `src/` file but a binary's `main.rs` and `bin/`.
fn in_library(unit: &Unit) -> bool {
    let rel = src_relative(&unit.rel_path);
    unit.lint && rel != "main.rs" && !rel.starts_with("bin/")
}

/// TF016: a library's non-test `pub fn` or `pub const fn` (methods
/// included) whose name no identifier outside that library's own files
/// spells — not another crate, not the crate's own `tests/`, `benches/`
/// or `examples/`, not `perfbench/src/`, not a doc example (rustdoc
/// compiles each as a crate of its own). Name-based like TF015: a name
/// any outside item shares hides the function. Findings come with the
/// index of the unit they sit in.
fn check_tf016(units: &[Unit]) -> Vec<(usize, Diagnostic)> {
    // Per identifier, the libraries spelling it (`None`: a file or doc
    // example outside every library).
    let mut spelled: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    for u in units {
        let owner = in_library(u).then_some(u.crate_name.as_str());
        let toks = u.toks.iter().map(|t| (t, owner));
        for (t, o) in toks.chain(u.doc_toks.iter().map(|t| (t, None))) {
            if t.kind == Kind::Ident {
                spelled.entry(&t.text).or_default().insert(o);
            }
        }
    }
    let mut diags = Vec::new();
    for (ui, u) in units.iter().enumerate().filter(|(_, u)| in_library(u)) {
        let toks = &u.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.text != "pub" || u.test_mask[i] {
                continue;
            }
            let j = i + 1 + usize::from(toks.get(i + 1).is_some_and(|t| t.text == "const"));
            let (Some(kw), Some(name)) = (toks.get(j), toks.get(j + 1)) else {
                continue;
            };
            if kw.text != "fn" || name.kind != Kind::Ident {
                continue;
            }
            let outside = spelled
                .get(name.text.as_str())
                .is_some_and(|o| o.iter().any(|&c| c != Some(u.crate_name.as_str())));
            if !outside {
                diags.push((ui, Diagnostic {
                    rule: "TF016",
                    file: u.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`pub fn {}`: nothing outside crate `{}`'s `src/` names it; narrow it \
                         to `pub(crate)` (rustc's `dead_code` then reports it if the crate \
                         does not call it either), delete it, or keep it public under \
                         `// tflint::allow(TF016): reason`",
                        name.text, u.crate_name
                    ),
                }));
            }
        }
    }
    diags
}

// ------------------------------------------------------------ file walking

/// Collects (crate, rel_path, source) units for one crate directory's
/// `src/`; with `references`, also its `tests/`, `benches/` and
/// `examples/`, lexed for TF015 and TF016 only. Paths reach the crate by its
/// `[package] name`, with `-` as `_`.
fn collect_crate_units(crate_dir: &Path, references: bool) -> io::Result<Vec<Unit>> {
    let crate_name = if crate_dir.join("crates").is_dir() {
        "thymesisflow".to_string()
    } else {
        crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("thymesisflow")
            .to_string()
    };
    let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).unwrap_or_default();
    let ident = manifest
        .split("[package]")
        .nth(1)
        .and_then(|pkg| {
            pkg.lines()
                .find_map(|l| l.trim().strip_prefix("name")?.trim().strip_prefix('='))
        })
        .map_or(crate_name.as_str(), |v| v.trim().trim_matches('"'))
        .replace('-', "_");
    let dirs: &[&str] = if references {
        &["src", "tests", "benches", "examples"]
    } else {
        &["src"]
    };
    let mut units = Vec::new();
    for &dir in dirs {
        collect_dir(&crate_dir.join(dir), &crate_name, &ident, dir == "src", &mut units)?;
    }
    Ok(units)
}

/// Lexes every `.rs` file under `dir` (if it exists) into `units`.
fn collect_dir(
    dir: &Path,
    crate_name: &str,
    crate_ident: &str,
    lint: bool,
    units: &mut Vec<Unit>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    walk(dir, &mut |path| {
        let source = std::fs::read_to_string(path)?;
        units.push(Unit {
            crate_ident: crate_ident.to_string(),
            lint,
            ..Unit::new(crate_name, &path.to_string_lossy(), &source)
        });
        Ok(())
    })
}

/// Collects units for the whole workspace rooted at `root`: the root
/// package plus every crate under `crates/`, each with its `tests/`,
/// `benches/` and `examples/`, and `perfbench/src/` (only TF015 and
/// TF016 read those). `vendor/` (offline dependency stand-ins) and `target/` are
/// never read.
fn collect_workspace_units(root: &Path) -> io::Result<Vec<Unit>> {
    // A mistyped root would otherwise scan nothing and report a clean
    // workspace — a false green for CI.
    if !root.join("src").is_dir() && !root.join("crates").is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no src/ or crates/ under {}", root.display()),
        ));
    }
    let mut units = collect_crate_units(root, true)?;
    let perfbench = root.join("perfbench");
    collect_dir(&perfbench.join("src"), "perfbench", "perfbench", false, &mut units)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            units.extend(collect_crate_units(&dir, true)?);
        }
    }
    Ok(units)
}

/// Lints every `.rs` file under `crate_dir/src` *and* audits its allow
/// comments: rule findings plus ALW001 (stale allow) / ALW002
/// (reasonless allow). The crate name is taken from the directory name
/// (the workspace root maps to `thymesisflow`), and the cross-file index
/// covers the crate's own files. This is what the per-crate [`gate!`]
/// test runs, so allow hygiene fails `cargo test` the same way a rule
/// violation does.
// tflint::allow(TF016): the `gate!` expansion in every crate's tests/tflint_gate.rs calls it.
pub fn gate_crate(crate_dir: &Path) -> io::Result<Vec<Diagnostic>> {
    let units = collect_crate_units(crate_dir, false)?;
    let (mut diags, audit) = run_units(&units, false);
    diags.extend(audit);
    Ok(diags)
}

/// Lints the whole workspace rooted at `root` with the full cross-crate
/// index in scope, TF015 and TF016 included.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let units = collect_workspace_units(root)?;
    Ok(run_units(&units, true).0)
}

/// Audits every allow comment in the workspace: stale and reasonless
/// allows as ALW00x diagnostics (empty when hygiene is clean).
pub fn audit_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let units = collect_workspace_units(root)?;
    Ok(run_units(&units, true).1)
}

fn walk(dir: &Path, f: &mut dyn FnMut(&Path) -> io::Result<()>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path)?;
        }
    }
    Ok(())
}

/// Expands to the per-crate static-analysis gate test: `cargo test`
/// fails if the crate violates any tflint rule **or** carries a stale
/// or reasonless `tflint::allow`. Every workspace member's
/// `tests/tflint_gate.rs` is exactly one invocation of this macro; the
/// `gate_coverage` test in the tflint crate asserts none is missing.
#[macro_export]
macro_rules! gate {
    () => {
        #[test]
        fn crate_passes_tflint() {
            let diags = $crate::gate_crate(::std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
                .expect("crate source readable");
            assert!(diags.is_empty(), "\n{}", $crate::render(&diags));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_tracks_lines_and_skips_comments() {
        let src = "let a = 1; // trailing\n/* block\nspanning */ let b = 2.5;\n";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.text == "b").expect("token b");
        assert_eq!(b.line, 3);
        let f = lexed
            .toks
            .iter()
            .find(|t| t.kind == Kind::Float)
            .expect("float");
        assert_eq!(f.text, "2.5");
    }

    #[test]
    fn lexer_separates_ranges_from_floats() {
        let lexed = lex("for i in 0..120 { x = 0.5; }");
        let nums: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| matches!(t.kind, Kind::Int | Kind::Float))
            .map(|t| (t.text.clone(), t.kind))
            .collect();
        assert_eq!(
            nums,
            vec![
                ("0".to_string(), Kind::Int),
                ("120".to_string(), Kind::Int),
                ("0.5".to_string(), Kind::Float),
            ]
        );
    }

    #[test]
    fn lexer_handles_lifetimes_and_chars() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'y' }");
        assert_eq!(
            lexed.toks.iter().filter(|t| t.kind == Kind::Lifetime).count(),
            2
        );
        assert_eq!(lexed.toks.iter().filter(|t| t.kind == Kind::Char).count(), 1);
    }

    #[test]
    fn lexer_handles_raw_and_byte_strings() {
        let lexed = lex(r##"let a = r#"raw "quoted" body"#; let b = b"bytes"; let c = rng;"##);
        assert_eq!(lexed.toks.iter().filter(|t| t.kind == Kind::Str).count(), 2);
        assert!(lexed.toks.iter().any(|t| t.text == "rng"));
    }

    #[test]
    fn allow_comments_parse_multiple_rules_and_reason() {
        let lexed = lex("x(); // tflint::allow(TF004, TF005) — invariant upheld by validate()\n");
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].rules, vec!["TF004", "TF005"]);
        assert_eq!(
            lexed.allows[0].reason.as_deref(),
            Some("invariant upheld by validate()")
        );
        let bare = lex("x(); // tflint::allow(TF004)\n");
        assert_eq!(bare.allows[0].reason, None);
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = "fn lib(x: Option<u8>) -> u8 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { y.unwrap(); }\n}\n";
        let diags = check_source("llc", "src/x.rs", src);
        assert_eq!(diags.len(), 1, "{}", render(&diags));
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[0].rule, "TF004");
    }

    #[test]
    fn index_records_items_with_spans() {
        let src = "use std::collections::HashMap;\npub mod api;\npub struct CoreError;\nimpl CoreError {}\nfn helper() {}\npub enum Mode { A }\n";
        let idx = index_sources(&[("core", "src/x.rs", src)]);
        let items = idx.items("core", "src/x.rs").expect("indexed");
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ItemKind::Use,
                ItemKind::Mod,
                ItemKind::Struct,
                ItemKind::Impl,
                ItemKind::Fn,
                ItemKind::Enum
            ]
        );
        assert_eq!(items[1].name, "api");
        assert!(items[1].is_pub);
        assert_eq!(items[4].name, "helper");
        assert!(!items[4].is_pub);
        assert_eq!(items[2].line, 3);
        assert!(idx.error_types("core").any(|e| e == "CoreError"));
    }

    #[test]
    fn index_tracks_hash_aliases() {
        let src = "use std::collections::HashMap as Map;\nstruct S { routes: Map<u32, u32> }\n";
        let idx = index_sources(&[("netsim", "src/x.rs", src)]);
        assert!(idx.hash_named("netsim").any(|n| n == "routes"));
    }

    #[test]
    fn index_sees_let_bound_constructions() {
        let src = "fn f() { let mut seen = HashMap::new(); seen.insert(1, 2); }\n";
        let idx = index_sources(&[("core", "src/x.rs", src)]);
        assert!(idx.hash_named("core").any(|n| n == "seen"));
    }
}
