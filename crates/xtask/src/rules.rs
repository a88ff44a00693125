//! The lint rules and the per-file checking engine.
//!
//! Rules operate on the token stream produced by [`crate::lexer`], with two
//! structural passes layered on top:
//!
//! * **Test-region skipping** — items annotated `#[cfg(test)]` / `#[test]`
//!   (and whole `tests/`, `benches/`, `examples/` trees, handled by
//!   [`crate::workspace`]) are exempt from every rule: the project bans
//!   `unwrap()` in *library* code, not in assertions about it.
//! * **Allow-listing** — a comment `// xtask-allow: rule1, rule2` grants an
//!   exemption for the named rules on the comment's own line *and* the line
//!   after it, so both trailing and preceding placements work. Prose after a
//!   rule name is permitted (`// xtask-allow: no-panic (writer is a Vec)`).

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// The project-specific lint rules `cargo xtask lint` enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No `unwrap()` / `expect()` / `panic!` family in library code; fallible
    /// paths must surface `GraphError` (or a crate-local error) instead.
    /// `assert!` / `debug_assert!` are sanctioned invariant guards and are
    /// deliberately not flagged.
    NoPanic,
    /// No `as` casts to integer types in the numeric core (`core`, `hll`,
    /// `temporal-graph`): timestamp/window/node-id arithmetic must use
    /// `From`/`try_from` or carry an explicit allow justifying losslessness.
    NoLossyCast,
    /// No default-SipHash `HashMap`/`HashSet` in `core`/`hll` hot paths; use
    /// the `FastMap`/`FastSet` aliases exported by `infprop-core`.
    NoDefaultHashmap,
    /// Every `pub` item must carry a doc comment (`///` or `#[doc]`).
    PubDocs,
    /// Every crate root must declare `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// No `println!`-family output in library crates; printing is the CLI's
    /// job, libraries return data.
    NoPrint,
    /// No raw `std::time::Instant` / `SystemTime` in library code: timing
    /// belongs to the `infprop_core::obs` recorder (span timers), bench
    /// code, or tests, so the hot paths stay clock-free by construction.
    NoRawTiming,
}

/// The single source of truth pairing each [`Rule`] with its kebab-case
/// name, in discriminant order. `name()`, `from_name()` and `all()` all
/// derive from this table, so adding a rule means adding exactly one row
/// (the `rule_table_is_consistent` test pins rows to discriminants).
const RULE_TABLE: [(Rule, &str); 7] = [
    (Rule::NoPanic, "no-panic"),
    (Rule::NoLossyCast, "no-lossy-cast"),
    (Rule::NoDefaultHashmap, "no-default-hashmap"),
    (Rule::PubDocs, "pub-docs"),
    (Rule::ForbidUnsafe, "forbid-unsafe"),
    (Rule::NoPrint, "no-print"),
    (Rule::NoRawTiming, "no-raw-timing"),
];

impl Rule {
    /// The kebab-case rule name used in diagnostics and `xtask-allow`.
    pub fn name(self) -> &'static str {
        RULE_TABLE[self as usize].1
    }

    /// Parses a rule name as written in an `xtask-allow` comment.
    pub fn from_name(name: &str) -> Option<Rule> {
        RULE_TABLE
            .iter()
            .find(|(_, n)| *n == name)
            .map(|&(rule, _)| rule)
    }

    /// All rules, for iteration.
    pub fn all() -> [Rule; RULE_TABLE.len()] {
        let mut out = [Rule::NoPanic; RULE_TABLE.len()];
        let mut i = 0;
        while i < RULE_TABLE.len() {
            out[i] = RULE_TABLE[i].0;
            i += 1;
        }
        out
    }
}

/// One diagnostic: a rule violated at a file:line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path of the offending file (workspace-relative when produced by
    /// [`crate::workspace::lint_workspace`]).
    pub file: PathBuf,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Per-file lint configuration, derived from the file's crate and role by
/// [`crate::workspace`].
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path used in diagnostics.
    pub path: PathBuf,
    /// The rules active for this file.
    pub rules: Vec<Rule>,
    /// Rules for which `xtask-allow` waivers are **ignored** in this file:
    /// violations fire unconditionally. Used for files whose contract is
    /// load-bearing (e.g. `no-raw-timing` in `core/src/delta.rs`, whose
    /// append/compact hot path must stay clock-free by construction).
    pub unwaivable: Vec<Rule>,
    /// Whether this file is a crate root (`src/lib.rs` / `src/main.rs`),
    /// which is where [`Rule::ForbidUnsafe`] applies.
    pub is_crate_root: bool,
}

const INT_TARGETS: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const PRINT_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

/// One `xtask-allow` waiver as written in the source: the comment's line
/// and the raw rule name it grants. Collected by
/// [`collect_allow_entries`] for the analyzer's stale-waiver pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The rule name as written (may be unknown — the stale pass flags it).
    pub name: String,
}

/// Strips parenthesized justification prose from the tail of an
/// `xtask-allow:` comment, so commas inside a justification — as in
/// `no-lossy-cast (exact below 2^53, saturating)` — are not mistaken for
/// name separators (and a rule name quoted inside one is not a grant).
pub(crate) fn strip_justifications(rest: &str) -> String {
    let mut out = String::with_capacity(rest.len());
    let mut depth = 0usize;
    for c in rest.chars() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Every waiver written in `source`, in order. Only plain `//` comments
/// count: an `xtask-allow:` inside a doc comment is prose (an example in
/// documentation), not a grant — the same rule the lint applies to its
/// waivers.
pub fn collect_allow_entries(source: &str) -> Vec<AllowEntry> {
    let toks = lex(source);
    let mut out = Vec::new();
    for tok in toks
        .iter()
        .filter(|t| t.is_comment() && !t.is_doc_comment())
    {
        let Some(idx) = tok.text.find("xtask-allow:") else {
            continue;
        };
        let rest = strip_justifications(&tok.text[idx + "xtask-allow:".len()..]);
        for item in rest.split(',') {
            let name = item.split_whitespace().next().unwrap_or("");
            if !name.is_empty() {
                out.push(AllowEntry {
                    line: tok.line,
                    name: name.to_string(),
                });
            }
        }
    }
    out
}

/// Lints one file's source under the given context.
pub fn lint_file(ctx: &FileContext, source: &str) -> Vec<Violation> {
    lint_file_consuming(ctx, source, &mut BTreeSet::new())
}

/// [`lint_file`], additionally recording into `consumed` every
/// `(waiver-comment line, rule name)` pair whose allowance actually
/// suppressed a violation — the ground truth the analyzer's stale-waiver
/// pass compares [`collect_allow_entries`] against.
pub fn lint_file_consuming(
    ctx: &FileContext,
    source: &str,
    consumed: &mut BTreeSet<(u32, String)>,
) -> Vec<Violation> {
    let toks = lex(source);
    let allows = collect_allows(&toks);
    // Indices (into `toks`) of non-comment tokens: the structural view.
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let skipped = test_region_mask(&toks, &code);

    let mut out = Vec::new();
    let mut report = |rule: Rule, line: u32, mut message: String| {
        let waivable = !ctx.unwaivable.contains(&rule);
        let allowed = waivable && allows.get(&line).is_some_and(|set| set.contains(&rule));
        if allowed {
            // The grant may sit on the violation's own line or the line
            // above; credit both placements as used.
            consumed.insert((line, rule.name().to_string()));
            if let Some(prev) = line.checked_sub(1) {
                consumed.insert((prev, rule.name().to_string()));
            }
        } else {
            if !waivable && allows.get(&line).is_some_and(|set| set.contains(&rule)) {
                message.push_str(" (xtask-allow is ignored: this rule is unwaivable here)");
            }
            out.push(Violation {
                file: ctx.path.clone(),
                line,
                rule,
                message,
            });
        }
    };

    for (ci, &ti) in code.iter().enumerate() {
        if skipped[ci] {
            continue;
        }
        let tok = &toks[ti];
        let next = code.get(ci + 1).map(|&j| &toks[j]);
        let prev = ci.checked_sub(1).map(|p| &toks[code[p]]);

        if tok.kind != TokenKind::Ident {
            continue;
        }

        if ctx.rules.contains(&Rule::NoPanic) {
            let is_method_call = PANIC_METHODS.contains(&tok.text.as_str())
                && next.is_some_and(|n| n.is_punct('('))
                && prev.is_some_and(|p| p.is_punct('.'));
            if is_method_call {
                report(
                    Rule::NoPanic,
                    tok.line,
                    format!(
                        "`.{}()` in library code; return a `GraphError` (or allow with \
                         `// xtask-allow: no-panic` and a justification)",
                        tok.text
                    ),
                );
            }
            if PANIC_MACROS.contains(&tok.text.as_str()) && next.is_some_and(|n| n.is_punct('!')) {
                report(
                    Rule::NoPanic,
                    tok.line,
                    format!(
                        "`{}!` in library code; return a `GraphError` instead",
                        tok.text
                    ),
                );
            }
        }

        if ctx.rules.contains(&Rule::NoLossyCast)
            && tok.is_ident("as")
            && next.is_some_and(|n| {
                n.kind == TokenKind::Ident && INT_TARGETS.contains(&n.text.as_str())
            })
        {
            let target = next.map(|n| n.text.as_str()).unwrap_or_default();
            report(
                Rule::NoLossyCast,
                tok.line,
                format!(
                    "`as {target}` cast in timestamp/id arithmetic; use `From`/`try_from`, \
                     or allow with a comment proving the cast lossless"
                ),
            );
        }

        if ctx.rules.contains(&Rule::NoDefaultHashmap)
            && (tok.is_ident("HashMap") || tok.is_ident("HashSet"))
        {
            report(
                Rule::NoDefaultHashmap,
                tok.line,
                format!(
                    "default-SipHash `{}` in a hot-path crate; use `FastMap`/`FastSet` \
                     from `infprop-core`",
                    tok.text
                ),
            );
        }

        if ctx.rules.contains(&Rule::NoPrint)
            && PRINT_MACROS.contains(&tok.text.as_str())
            && next.is_some_and(|n| n.is_punct('!'))
        {
            report(
                Rule::NoPrint,
                tok.line,
                format!(
                    "`{}!` in library code; return data and let the CLI print",
                    tok.text
                ),
            );
        }

        if ctx.rules.contains(&Rule::NoRawTiming)
            && (tok.is_ident("Instant") || tok.is_ident("SystemTime"))
        {
            report(
                Rule::NoRawTiming,
                tok.line,
                format!(
                    "raw `{}` in library code; route timing through the \
                     `infprop_core::obs` span recorder (or allow with \
                     `// xtask-allow: no-raw-timing` and a justification)",
                    tok.text
                ),
            );
        }

        if ctx.rules.contains(&Rule::PubDocs) && tok.is_ident("pub") {
            // `pub(crate)`-style restricted visibility is not public API;
            // `pub use` re-exports inherit the re-exported item's docs;
            // tuple-struct fields (`pub` preceded by `(` or `,`) and file
            // module declarations (`pub mod x;`, documented by `//!` inside
            // the module file) follow rustc's `missing_docs` semantics.
            let is_tuple_field = prev.is_some_and(|p| p.is_punct('(') || p.is_punct(','));
            let is_file_mod = next.is_some_and(|n| n.is_ident("mod"))
                && code.get(ci + 3).is_some_and(|&j| toks[j].is_punct(';'));
            let exempt = next.is_none()
                || next.is_some_and(|n| n.is_punct('(') || n.is_ident("use"))
                || is_tuple_field
                || is_file_mod;
            if !exempt && !has_doc_before(&toks, ti) {
                let item = item_name_after(&toks, &code, ci);
                report(
                    Rule::PubDocs,
                    tok.line,
                    format!("public item `{item}` lacks a doc comment"),
                );
            }
        }
    }

    if ctx.is_crate_root
        && ctx.rules.contains(&Rule::ForbidUnsafe)
        && !has_forbid_unsafe(&toks, &code)
    {
        report(
            Rule::ForbidUnsafe,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Parses every `xtask-allow:` comment into a line → rules map. An allowance
/// covers the comment's starting line and the immediately following line.
/// Doc comments do not grant: an `xtask-allow:` inside `///`/`//!` text is
/// documentation prose, not a waiver.
fn collect_allows(toks: &[Token]) -> BTreeMap<u32, BTreeSet<Rule>> {
    let mut map: BTreeMap<u32, BTreeSet<Rule>> = BTreeMap::new();
    for tok in toks
        .iter()
        .filter(|t| t.is_comment() && !t.is_doc_comment())
    {
        let Some(idx) = tok.text.find("xtask-allow:") else {
            continue;
        };
        let rest = strip_justifications(&tok.text[idx + "xtask-allow:".len()..]);
        // Rule names are comma-separated; anything after the name within an
        // item (whitespace-delimited) is justification prose.
        for item in rest.split(',') {
            let name = item.split_whitespace().next().unwrap_or("");
            if let Some(rule) = Rule::from_name(name) {
                map.entry(tok.line).or_default().insert(rule);
                map.entry(tok.line + 1).or_default().insert(rule);
            }
        }
    }
    map
}

/// Marks code tokens belonging to `#[cfg(test)]` / `#[test]` items.
///
/// Returns a mask parallel to `code`. When an attribute group mentions the
/// bare identifier `test` (and not `not`, so `#[cfg(not(test))]` stays
/// linted), the attribute and the item it annotates — through the matching
/// close brace, or the first `;` for brace-less items — are masked out.
pub(crate) fn test_region_mask(toks: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut ci = 0usize;
    while ci < code.len() {
        let t = &toks[code[ci]];
        if t.is_punct('#') && code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('[')) {
            if let Some(close) = matching(toks, code, ci + 1, '[', ']') {
                let attr_is_test = {
                    let mut has_test = false;
                    let mut has_not = false;
                    for &j in &code[ci + 2..close] {
                        if toks[j].is_ident("test") {
                            has_test = true;
                        }
                        if toks[j].is_ident("not") {
                            has_not = true;
                        }
                    }
                    has_test && !has_not
                };
                if attr_is_test {
                    let end = item_end(toks, code, close + 1).unwrap_or(code.len() - 1);
                    for m in mask.iter_mut().take(end + 1).skip(ci) {
                        *m = true;
                    }
                    ci = end + 1;
                    continue;
                }
                // Non-test attribute: step past it so its contents (e.g.
                // `#[derive(Hash)]`… or doc attrs) are scanned normally.
                ci = close + 1;
                continue;
            }
        }
        ci += 1;
    }
    mask
}

/// Finds the close index (in `code` coordinates) matching the opener at
/// `open_ci`.
pub(crate) fn matching(
    toks: &[Token],
    code: &[usize],
    open_ci: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (ci, &j) in code.iter().enumerate().skip(open_ci) {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(ci);
            }
        }
    }
    None
}

/// The end (in `code` coordinates) of the item starting at `start_ci`:
/// the matching `}` of its first brace, or the first `;` if one comes first
/// (use declarations, type aliases, consts). Skips further attributes.
fn item_end(toks: &[Token], code: &[usize], start_ci: usize) -> Option<usize> {
    let mut ci = start_ci;
    let mut depth = 0usize;
    while ci < code.len() {
        let t = &toks[code[ci]];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some(ci);
            }
        } else if t.is_punct(';') && depth == 0 {
            return Some(ci);
        }
        ci += 1;
    }
    None
}

/// Does a doc comment or `#[doc…]` attribute immediately precede (modulo
/// other attributes and plain comments) the token at full-index `ti`?
fn has_doc_before(toks: &[Token], ti: usize) -> bool {
    let mut i = ti;
    while i > 0 {
        i -= 1;
        let t = &toks[i];
        if t.is_doc_comment() {
            return true;
        }
        if t.is_comment() {
            continue; // plain comments between docs and the item are fine
        }
        if t.is_punct(']') {
            // Walk back over the attribute group to its `[`.
            let mut depth = 1usize;
            let mut j = i;
            let mut first_ident: Option<&str> = None;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct(']') {
                    depth += 1;
                } else if toks[j].is_punct('[') {
                    depth -= 1;
                } else if toks[j].kind == TokenKind::Ident {
                    first_ident = Some(&toks[j].text);
                }
            }
            // `#[doc = "…"]` / `#[doc(…)]` / `#[cfg_attr(…, doc …)]` count
            // as documentation; the first identifier inside the group is the
            // attribute path head.
            if first_ident == Some("doc") {
                return true;
            }
            // Step over the `#` introducing the attribute and keep looking.
            if j > 0 && toks[j - 1].is_punct('#') {
                i = j - 1;
                continue;
            }
            return false;
        }
        return false;
    }
    false
}

/// Best-effort name of the item a `pub` at code-index `ci` introduces, for
/// diagnostics: the first identifier that is not a declaration keyword.
fn item_name_after(toks: &[Token], code: &[usize], ci: usize) -> String {
    const KEYWORDS: [&str; 12] = [
        "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "unsafe", "async",
        "extern", "impl",
    ];
    for &j in code.iter().skip(ci + 1).take(6) {
        let t = &toks[j];
        if t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
            return t.text.clone();
        }
    }
    "<unnamed>".to_string()
}

/// Looks for `#![forbid(unsafe_code)]` (possibly with more lints in the
/// list) anywhere in the token stream.
fn has_forbid_unsafe(toks: &[Token], code: &[usize]) -> bool {
    for (ci, &j) in code.iter().enumerate() {
        if toks[j].is_ident("forbid")
            && ci >= 3
            && toks[code[ci - 1]].is_punct('[')
            && toks[code[ci - 2]].is_punct('!')
            && toks[code[ci - 3]].is_punct('#')
            && code.get(ci + 1).is_some_and(|&k| toks[k].is_punct('('))
        {
            if let Some(close) = matching(toks, code, ci + 1, '(', ')') {
                if code[ci + 2..close]
                    .iter()
                    .any(|&k| toks[k].is_ident("unsafe_code"))
                {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rules: Vec<Rule>, root: bool) -> FileContext {
        FileContext {
            path: PathBuf::from("test.rs"),
            rules,
            unwaivable: Vec::new(),
            is_crate_root: root,
        }
    }

    fn fired(src: &str, rules: Vec<Rule>) -> Vec<(Rule, u32)> {
        lint_file(&ctx(rules, false), src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn rule_table_is_consistent() {
        // Rows sit at their discriminant index, so `name()`'s direct index
        // is safe, and the name/from_name pair round-trips for every rule.
        for (i, &(rule, name)) in RULE_TABLE.iter().enumerate() {
            assert_eq!(rule as usize, i, "RULE_TABLE row {i} out of order");
            assert_eq!(rule.name(), name);
            assert_eq!(Rule::from_name(name), Some(rule));
        }
        assert_eq!(Rule::all().len(), RULE_TABLE.len());
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }

    #[test]
    fn allow_entries_collected_with_unknown_names() {
        let src = "fn f() {} // xtask-allow: no-panic, not-a-rule (prose)\n\
                   /// doc example: // xtask-allow: no-print\n\
                   fn g() {}\n";
        let entries = collect_allow_entries(src);
        assert_eq!(
            entries,
            vec![
                AllowEntry {
                    line: 1,
                    name: "no-panic".into()
                },
                AllowEntry {
                    line: 1,
                    name: "not-a-rule".into()
                },
            ],
            "doc-comment mentions must not count as waivers"
        );
    }

    #[test]
    fn consumed_allows_are_reported() {
        let src = "// xtask-allow: no-panic (fixture)\nfn f() { x.unwrap(); }";
        let mut consumed = BTreeSet::new();
        let v = lint_file_consuming(&ctx(vec![Rule::NoPanic], false), src, &mut consumed);
        assert!(v.is_empty());
        assert!(consumed.contains(&(1, "no-panic".to_string())));
    }

    #[test]
    fn unwrap_flagged() {
        assert_eq!(
            fired("fn f() { x.unwrap(); }", vec![Rule::NoPanic]),
            [(Rule::NoPanic, 1)]
        );
    }

    #[test]
    fn unwrap_or_not_flagged() {
        assert!(fired("fn f() { x.unwrap_or(0); }", vec![Rule::NoPanic]).is_empty());
    }

    #[test]
    fn panic_macro_flagged_but_assert_allowed() {
        let src = "fn f() { assert!(x > 0); debug_assert!(y); panic!(\"no\"); }";
        assert_eq!(fired(src, vec![Rule::NoPanic]), [(Rule::NoPanic, 1)]);
    }

    #[test]
    fn allow_comment_same_line_and_next_line() {
        let same = "fn f() { x.unwrap(); } // xtask-allow: no-panic (test fixture)";
        assert!(fired(same, vec![Rule::NoPanic]).is_empty());
        let prev = "// xtask-allow: no-panic\nfn f() { x.unwrap(); }";
        assert!(fired(prev, vec![Rule::NoPanic]).is_empty());
        let wrong_rule = "// xtask-allow: no-print\nfn f() { x.unwrap(); }";
        assert_eq!(fired(wrong_rule, vec![Rule::NoPanic]).len(), 1);
    }

    #[test]
    fn cfg_test_region_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(fired(src, vec![Rule::NoPanic]).is_empty());
        let not_test = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }";
        assert_eq!(fired(not_test, vec![Rule::NoPanic]).len(), 1);
    }

    #[test]
    fn code_after_test_mod_still_linted() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }\nfn lib() { b.unwrap(); }";
        assert_eq!(fired(src, vec![Rule::NoPanic]), [(Rule::NoPanic, 3)]);
    }

    #[test]
    fn comment_and_string_not_flagged() {
        let src = "// call .unwrap() never\nfn f() { let s = \"panic!\"; }";
        assert!(fired(src, vec![Rule::NoPanic]).is_empty());
    }

    #[test]
    fn lossy_cast_flagged_float_exempt() {
        let src = "fn f(x: i64) { let a = x as usize; let b = x as f64; }";
        assert_eq!(
            fired(src, vec![Rule::NoLossyCast]),
            [(Rule::NoLossyCast, 1)]
        );
    }

    #[test]
    fn default_hashmap_flagged() {
        let src = "use std::collections::HashMap;\nfn f() { let m: FastHashMap<u8,u8>; }";
        assert_eq!(
            fired(src, vec![Rule::NoDefaultHashmap]),
            [(Rule::NoDefaultHashmap, 1)]
        );
    }

    #[test]
    fn print_macros_flagged() {
        let src = "fn f() { println!(\"x\"); write!(w, \"y\"); }";
        assert_eq!(fired(src, vec![Rule::NoPrint]), [(Rule::NoPrint, 1)]);
    }

    #[test]
    fn pub_docs() {
        let undoc = "pub fn f() {}";
        assert_eq!(fired(undoc, vec![Rule::PubDocs]).len(), 1);
        let doc = "/// Does f.\npub fn f() {}";
        assert!(fired(doc, vec![Rule::PubDocs]).is_empty());
        let attr_between = "/// Doc.\n#[inline]\npub fn f() {}";
        assert!(fired(attr_between, vec![Rule::PubDocs]).is_empty());
        let doc_attr = "#[doc = \"hi\"]\npub fn f() {}";
        assert!(fired(doc_attr, vec![Rule::PubDocs]).is_empty());
        let restricted = "pub(crate) fn f() {}";
        assert!(fired(restricted, vec![Rule::PubDocs]).is_empty());
        let reexport = "pub use foo::Bar;";
        assert!(fired(reexport, vec![Rule::PubDocs]).is_empty());
        let field = "/// S.\npub struct S {\n    pub x: u32,\n}";
        assert_eq!(fired(field, vec![Rule::PubDocs]).len(), 1);
        let tuple_field = "/// Id.\npub struct Id(pub u32);";
        assert!(fired(tuple_field, vec![Rule::PubDocs]).is_empty());
        let file_mod = "pub mod engine;";
        assert!(fired(file_mod, vec![Rule::PubDocs]).is_empty());
        let inline_mod = "pub mod prelude { }";
        assert_eq!(fired(inline_mod, vec![Rule::PubDocs]).len(), 1);
    }

    #[test]
    fn forbid_unsafe_on_roots() {
        let with = "#![forbid(unsafe_code)]\nfn main() {}";
        let without = "fn main() {}";
        let v = lint_file(&ctx(vec![Rule::ForbidUnsafe], true), with);
        assert!(v.is_empty());
        let v = lint_file(&ctx(vec![Rule::ForbidUnsafe], true), without);
        assert_eq!(v.len(), 1);
        // Non-root files do not need the attribute.
        let v = lint_file(&ctx(vec![Rule::ForbidUnsafe], false), without);
        assert!(v.is_empty());
    }

    #[test]
    fn raw_timing_flagged() {
        let src = "use std::time::Instant;\nfn f() { let t = SystemTime::now(); }";
        assert_eq!(
            fired(src, vec![Rule::NoRawTiming]),
            [(Rule::NoRawTiming, 1), (Rule::NoRawTiming, 2)]
        );
    }

    #[test]
    fn raw_timing_waivable_and_test_exempt() {
        let waived = "// xtask-allow: no-raw-timing (bench harness)\nlet t0 = Instant::now();";
        assert!(fired(waived, vec![Rule::NoRawTiming]).is_empty());
        let test_code = "#[cfg(test)]\nmod tests { fn t() { let _ = Instant::now(); } }";
        assert!(fired(test_code, vec![Rule::NoRawTiming]).is_empty());
        // Mentions in comments and strings never fire.
        let prose = "// Instant is banned here\nfn f() { let s = \"SystemTime\"; }";
        assert!(fired(prose, vec![Rule::NoRawTiming]).is_empty());
    }

    #[test]
    fn unwaivable_rule_ignores_allow_comments() {
        let src = "// xtask-allow: no-raw-timing (should not help)\nlet t0 = Instant::now();";
        let mut c = ctx(vec![Rule::NoRawTiming], false);
        c.unwaivable = vec![Rule::NoRawTiming];
        let v = lint_file(&c, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unwaivable"), "{}", v[0].message);
        // Other rules in the same file stay waivable.
        let src = "// xtask-allow: no-panic (fixture)\nfn f() { x.unwrap(); }";
        assert!(lint_file(&c, src).is_empty());
        // Test regions stay exempt even from unwaivable rules.
        let test_code = "#[cfg(test)]\nmod tests { fn t() { let _ = Instant::now(); } }";
        assert!(lint_file(&c, test_code).is_empty());
    }

    #[test]
    fn multiple_allows_one_comment() {
        let src = "fn f() { let m: HashMap<u8, u8> = x.unwrap(); } // xtask-allow: no-panic, no-default-hashmap";
        assert!(fired(src, vec![Rule::NoPanic, Rule::NoDefaultHashmap]).is_empty());
    }
}
