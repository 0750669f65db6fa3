//! The project-invariant lints. Each lint walks the parsed
//! [`Workspace`] and returns named, `file:line`-anchored [`Finding`]s;
//! the binary exits nonzero when any lint fires. Suppression is always
//! explicit and always justified:
//! `// xqcheck: allow(lint-name) — reason` on the offending line or the
//! line above (a reason-less allow does not count).

use crate::lexer::Tok;
use crate::source::{Section, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Relative path of the atomic-ordering audit table.
pub const ATOMICS_FILE: &str = "ATOMICS.md";
/// Relative path of the obs metric-name schema.
pub const SCHEMA_FILE: &str = "ci/obs-schema.txt";

/// Crates whose non-test code must not panic: they face the network,
/// where a panic turns one defective peer into a process-wide incident.
/// `xquery` is one of them: the server parses view query text a client
/// sends (`RegisterView`), and `xqview-cli submit` parses user scripts.
const NET_CRATES: &[&str] = &["proto", "server", "client", "xquery"];

/// The atomic `Ordering` variants (distinguishes `sync::atomic::Ordering`
/// from `cmp::Ordering`, whose variants are Less/Equal/Greater).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: &'static str,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.msg)
    }
}

fn finding(lint: &'static str, f: &SourceFile, line: u32, msg: String) -> Finding {
    Finding { lint, file: f.rel.clone(), line, msg }
}

/// Non-comment tokens of a file, with their indices preserved for
/// pattern lookahead.
fn code_tokens(f: &SourceFile) -> Vec<(u32, &Tok)> {
    f.tokens
        .iter()
        .filter(|t| !matches!(t.kind, Tok::Comment(_)))
        .map(|t| (t.line, &t.kind))
        .collect()
}

fn is_word(t: Option<&(u32, &Tok)>, w: &str) -> bool {
    matches!(t, Some((_, Tok::Word(x))) if x == w)
}

fn is_punct(t: Option<&(u32, &Tok)>, p: char) -> bool {
    matches!(t, Some((_, Tok::Punct(x))) if *x == p)
}

// ---------------------------------------------------------------------
// Lint 1: safety-comment — every `unsafe` carries a `// SAFETY:` comment.
// ---------------------------------------------------------------------

/// How far above an `unsafe` token a `SAFETY:` comment may sit (lines).
const SAFETY_WINDOW: u32 = 5;

pub fn safety_comment(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        for t in &f.tokens {
            let Tok::Word(w) = &t.kind else { continue };
            if w != "unsafe" {
                continue;
            }
            let covered =
                f.safety_lines.iter().any(|&l| l <= t.line && l + SAFETY_WINDOW >= t.line);
            if covered || f.allowed("safety-comment", t.line) {
                continue;
            }
            out.push(finding(
                "safety-comment",
                f,
                t.line,
                format!(
                    "`unsafe` with no `// SAFETY:` comment within {SAFETY_WINDOW} lines — state \
                     the invariant this relies on"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Lint 2: no-panic — no unwrap()/expect()/panic! in non-test code of the
// network-facing crates.
// ---------------------------------------------------------------------

pub fn no_panic(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        let in_scope = f.section == Section::Src
            && f.crate_name.as_deref().is_some_and(|c| NET_CRATES.contains(&c));
        if !in_scope {
            continue;
        }
        let code = code_tokens(f);
        for i in 0..code.len() {
            let (line, tok) = code[i];
            let Tok::Word(w) = tok else { continue };
            let hit = match w.as_str() {
                "unwrap" | "expect" => {
                    i > 0 && is_punct(code.get(i - 1), '.') && is_punct(code.get(i + 1), '(')
                }
                "panic" => is_punct(code.get(i + 1), '!'),
                _ => false,
            };
            if !hit || f.in_test_code(line) || f.allowed("no-panic", line) {
                continue;
            }
            out.push(finding(
                "no-panic",
                f,
                line,
                format!(
                    "`{w}` in non-test code of network-facing crate `{}` — return a typed error \
                     (or log and close the connection) instead",
                    f.crate_name.as_deref().unwrap_or("?")
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Lint 3: atomics-audit — every atomic Ordering site appears in the
// checked-in ATOMICS.md table (and no stale rows).
// ---------------------------------------------------------------------

/// One row of the audit table: `| file | fragment | ordering | role … |`.
#[derive(Debug, Clone)]
pub struct AuditRow {
    pub file: String,
    pub fragment: String,
    pub ordering: String,
    pub row_line: u32,
}

/// Parse the markdown table rows out of `ATOMICS.md` (any `|`-delimited
/// row whose third cell is an Ordering variant; headers and separators
/// fall out naturally).
pub fn parse_audit(md: &str) -> Vec<AuditRow> {
    let mut rows = Vec::new();
    for (i, raw) in md.lines().enumerate() {
        let line = raw.trim();
        if !line.starts_with('|') {
            continue;
        }
        let cells: Vec<String> = line
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().trim_matches('`').to_string())
            .collect();
        if cells.len() < 3 || !ATOMIC_ORDERINGS.contains(&cells[2].as_str()) {
            continue;
        }
        rows.push(AuditRow {
            file: cells[0].clone(),
            fragment: cells[1].clone(),
            ordering: cells[2].clone(),
            row_line: i as u32 + 1,
        });
    }
    rows
}

/// An atomic-ordering use site found in source.
pub struct AtomicSite<'a> {
    pub file: &'a SourceFile,
    pub line: u32,
    pub ordering: &'a str,
}

pub fn atomic_sites(ws: &Workspace) -> Vec<AtomicSite<'_>> {
    let mut sites = Vec::new();
    for f in &ws.files {
        if f.section != Section::Src {
            continue;
        }
        let code = code_tokens(f);
        for i in 0..code.len() {
            if !is_word(code.get(i), "Ordering")
                || !is_punct(code.get(i + 1), ':')
                || !is_punct(code.get(i + 2), ':')
            {
                continue;
            }
            let Some((line, Tok::Word(variant))) = code.get(i + 3) else { continue };
            let Some(&ordering) = ATOMIC_ORDERINGS.iter().find(|&&o| o == variant) else {
                continue;
            };
            if f.in_test_code(*line) {
                continue;
            }
            sites.push(AtomicSite { file: f, line: *line, ordering });
        }
    }
    sites
}

pub fn atomics_audit(ws: &Workspace) -> Vec<Finding> {
    let Some(md) = ws.read_root_file(ATOMICS_FILE) else {
        return vec![Finding {
            lint: "atomics-audit",
            file: ATOMICS_FILE.to_string(),
            line: 1,
            msg: "missing ATOMICS.md — every atomic Ordering site must be audited there".into(),
        }];
    };
    let rows = parse_audit(&md);
    let mut used = vec![false; rows.len()];
    let mut out = Vec::new();
    for site in atomic_sites(ws) {
        if site.file.allowed("atomics-audit", site.line) {
            continue;
        }
        let text = site.file.line_text(site.line);
        let hit = rows.iter().enumerate().find(|(_, r)| {
            r.file == site.file.rel && r.ordering == site.ordering && text.contains(&r.fragment)
        });
        match hit {
            Some((i, _)) => used[i] = true,
            None => out.push(finding(
                "atomics-audit",
                site.file,
                site.line,
                format!(
                    "`Ordering::{}` site is not in the ATOMICS.md audit table — add a row \
                     (file, fragment, ordering, role, pairing) so the ordering is reviewed",
                    site.ordering
                ),
            )),
        }
    }
    for (i, row) in rows.iter().enumerate() {
        if !used[i] {
            out.push(Finding {
                lint: "atomics-audit",
                file: ATOMICS_FILE.to_string(),
                line: row.row_line,
                msg: format!(
                    "stale audit row: no `Ordering::{}` site in `{}` matches fragment `{}`",
                    row.ordering, row.file, row.fragment
                ),
            });
        }
    }
    out
}

/// Emit skeleton audit rows for every currently-unaudited site — the
/// helper for extending ATOMICS.md after adding an atomic.
pub fn atomics_skeleton(ws: &Workspace) -> Vec<String> {
    let rows = ws.read_root_file(ATOMICS_FILE).map(|md| parse_audit(&md)).unwrap_or_default();
    let mut out = Vec::new();
    for site in atomic_sites(ws) {
        let text = site.file.line_text(site.line);
        let audited = rows.iter().any(|r| {
            r.file == site.file.rel && r.ordering == site.ordering && text.contains(&r.fragment)
        });
        if !audited {
            out.push(format!(
                "| {} | `{}` | {} | TODO role — TODO pairing |",
                site.file.rel,
                text.replace('|', "\\|"),
                site.ordering
            ));
        }
    }
    out.dedup();
    out
}

// ---------------------------------------------------------------------
// Lint 4: metrics-schema — obs metric names used in source and the
// checked-in schema must agree, both directions.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SchemaEntry {
    pub kind: String,
    pub name: String,
}

/// Parse `ci/obs-schema.txt`: one `kind name [smoke]` per line, `#`
/// comments. `*` in a name is a wildcard for a runtime-formatted
/// segment.
pub fn parse_schema(text: &str) -> Vec<SchemaEntry> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(kind), Some(name)) = (it.next(), it.next()) else { continue };
        out.push(SchemaEntry { kind: kind.to_string(), name: name.to_string() });
    }
    out
}

/// A metric-name use site: `.counter("…")` / `.gauge(&format!("…"))` / …
pub struct MetricSite<'a> {
    pub file: &'a SourceFile,
    pub line: u32,
    pub kind: &'static str,
    /// The literal name, or the format string with `{…}` replaced by `*`.
    pub name: String,
    pub dynamic: bool,
}

pub fn metric_sites(ws: &Workspace) -> Vec<MetricSite<'_>> {
    let mut sites = Vec::new();
    for f in &ws.files {
        if !matches!(f.section, Section::Src | Section::Examples) {
            continue;
        }
        let code = code_tokens(f);
        for i in 0..code.len() {
            let Some((line, Tok::Word(w))) = code.get(i) else { continue };
            let kind = match w.as_str() {
                "counter" => "counter",
                "gauge" => "gauge",
                "histogram" => "histogram",
                _ => continue,
            };
            // Method-call shape only: `.counter(`, never `fn counter(`.
            if i == 0 || !is_punct(code.get(i - 1), '.') || !is_punct(code.get(i + 1), '(') {
                continue;
            }
            if f.in_test_code(*line) {
                continue;
            }
            // Literal: `.counter("name")`
            if let Some((_, Tok::Str(s))) = code.get(i + 2) {
                sites.push(MetricSite {
                    file: f,
                    line: *line,
                    kind,
                    name: s.clone(),
                    dynamic: false,
                });
                continue;
            }
            // Dynamic: `.counter(&format!("pre/{x}/post"))`
            let fmt_at = if is_punct(code.get(i + 2), '&') { i + 3 } else { i + 2 };
            if is_word(code.get(fmt_at), "format")
                && is_punct(code.get(fmt_at + 1), '!')
                && is_punct(code.get(fmt_at + 2), '(')
            {
                if let Some((_, Tok::Str(s))) = code.get(fmt_at + 3) {
                    sites.push(MetricSite {
                        file: f,
                        line: *line,
                        kind,
                        name: wildcard_pattern(s),
                        dynamic: true,
                    });
                }
            }
            // Anything else (a variable) cannot be checked statically.
        }
    }
    sites
}

/// Turn a format string into a schema pattern: `net/req/{kind}` →
/// `net/req/*`.
fn wildcard_pattern(fmt: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in fmt.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// Glob match where `*` spans any characters (metric segments may
/// themselves contain `/`, e.g. span names).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((pre, rest)) => {
            let Some(tail) = name.strip_prefix(pre) else { return false };
            if rest.is_empty() {
                return true;
            }
            (0..=tail.len()).any(|k| tail.is_char_boundary(k) && glob_match(rest, &tail[k..]))
        }
    }
}

pub fn metrics_schema(ws: &Workspace) -> Vec<Finding> {
    let Some(text) = ws.read_root_file(SCHEMA_FILE) else {
        return vec![Finding {
            lint: "metrics-schema",
            file: SCHEMA_FILE.to_string(),
            line: 1,
            msg: "missing obs metric schema — every metric name must be registered there".into(),
        }];
    };
    let schema = parse_schema(&text);
    let mut out = Vec::new();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for site in metric_sites(ws) {
        if site.file.allowed("metrics-schema", site.line) {
            continue;
        }
        let hit = schema.iter().enumerate().find(|(_, e)| {
            e.kind == site.kind
                && if site.dynamic { e.name == site.name } else { glob_match(&e.name, &site.name) }
        });
        match hit {
            Some((i, _)) => {
                used.insert(i);
            }
            None => out.push(finding(
                "metrics-schema",
                site.file,
                site.line,
                format!(
                    "{} `{}` is not in {SCHEMA_FILE} — register it (and extend the CI obs-smoke \
                     assertions if it should be exercised by the metrics example)",
                    site.kind, site.name
                ),
            )),
        }
    }
    for (i, e) in schema.iter().enumerate() {
        if !used.contains(&i) {
            out.push(Finding {
                lint: "metrics-schema",
                file: SCHEMA_FILE.to_string(),
                line: 1 + text.lines().position(|l| l.contains(&e.name)).unwrap_or(0) as u32,
                msg: format!(
                    "schema entry `{} {}` matches no source site — remove it or fix the drift",
                    e.kind, e.name
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Lint 5: codec-pair — every `wire::Encode` impl has a matching
// `Decode` impl (and vice versa).
// ---------------------------------------------------------------------

/// One `impl … Encode/Decode for Target` site.
pub struct CodecImpl<'a> {
    pub file: &'a SourceFile,
    pub line: u32,
    pub trait_name: String,
    /// Whitespace-normalized target type text.
    pub target: String,
}

pub fn codec_impls(ws: &Workspace) -> Vec<CodecImpl<'_>> {
    let mut out = Vec::new();
    for f in &ws.files {
        if f.section != Section::Src {
            continue;
        }
        let code = code_tokens(f);
        let mut i = 0;
        while i < code.len() {
            if !is_word(code.get(i), "impl") {
                i += 1;
                continue;
            }
            let impl_line = code[i].0;
            let mut j = i + 1;
            // Skip the generic parameter list, if any.
            if is_punct(code.get(j), '<') {
                let mut d = 1;
                j += 1;
                while j < code.len() && d > 0 {
                    if is_punct(code.get(j), '<') {
                        d += 1;
                    } else if is_punct(code.get(j), '>') {
                        d -= 1;
                    }
                    j += 1;
                }
            }
            // Collect the trait path up to `for` (bounded: a non-trait
            // impl block has `{` first).
            let mut trait_words: Vec<String> = Vec::new();
            let mut k = j;
            let mut saw_for = false;
            while k < code.len() && k < j + 12 {
                match code[k].1 {
                    Tok::Word(w) if w == "for" => {
                        saw_for = true;
                        break;
                    }
                    Tok::Punct('{') | Tok::Punct(';') => break,
                    Tok::Word(w) => trait_words.push(w.clone()),
                    _ => {}
                }
                k += 1;
            }
            let trait_name = trait_words.last().cloned().unwrap_or_default();
            if !saw_for || (trait_name != "Encode" && trait_name != "Decode") {
                i = j;
                continue;
            }
            // Render the target type up to `{` or `where`.
            let mut target = String::new();
            let mut m = k + 1;
            while m < code.len() {
                match code[m].1 {
                    Tok::Punct('{') => break,
                    Tok::Word(w) if w == "where" => break,
                    Tok::Word(w) => target.push_str(w),
                    Tok::Punct(p) => target.push(*p),
                    Tok::Lifetime => target.push_str("'_"),
                    _ => {}
                }
                m += 1;
            }
            // `?Sized` bounds never appear in the target position; strip
            // nothing further — exact text is the pairing key.
            out.push(CodecImpl { file: f, line: impl_line, trait_name, target });
            i = m;
        }
    }
    out
}

pub fn codec_pair(ws: &Workspace) -> Vec<Finding> {
    let impls = codec_impls(ws);
    let mut by_target: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for im in &impls {
        let e = by_target.entry(im.target.as_str()).or_default();
        if im.trait_name == "Encode" {
            e.0 = true;
        } else {
            e.1 = true;
        }
    }
    let mut out = Vec::new();
    for im in &impls {
        let (has_enc, has_dec) = by_target[im.target.as_str()];
        let missing = match im.trait_name.as_str() {
            "Encode" if !has_dec => "Decode",
            "Decode" if !has_enc => "Encode",
            _ => continue,
        };
        if im.file.allowed("codec-pair", im.line) {
            continue;
        }
        out.push(finding(
            "codec-pair",
            im.file,
            im.line,
            format!(
                "`{}` has an `{}` impl but no `{missing}` impl — wire types must round-trip \
                 (decode-side validation is the recovery path's input filter)",
                im.target, im.trait_name
            ),
        ));
    }
    out
}

// ---------------------------------------------------------------------

/// One lint entry: name plus the pass over a parsed workspace.
pub type Lint = (&'static str, fn(&Workspace) -> Vec<Finding>);

/// Every lint, in report order.
pub const LINTS: &[Lint] = &[
    ("safety-comment", safety_comment),
    ("no-panic", no_panic),
    ("atomics-audit", atomics_audit),
    ("metrics-schema", metrics_schema),
    ("codec-pair", codec_pair),
];

/// Run one lint by name, or all of them.
pub fn run(ws: &Workspace, which: Option<&str>) -> Result<Vec<Finding>, String> {
    match which {
        None => Ok(LINTS.iter().flat_map(|(_, f)| f(ws)).collect()),
        Some(name) => LINTS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f(ws))
            .ok_or_else(|| format!("unknown lint `{name}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_patterns() {
        assert_eq!(wildcard_pattern("net/req/{kind}"), "net/req/*");
        assert_eq!(wildcard_pattern("view/{name}/apply"), "view/*/apply");
        assert_eq!(wildcard_pattern("plain"), "plain");
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("net/req/*", "net/req/commit"));
        assert!(glob_match("span/*", "span/vpa/propagate"), "* spans slashes");
        assert!(glob_match("hub/session/*/depth", "hub/session/7/depth"));
        assert!(!glob_match("hub/session/*/depth", "hub/session/7/other"));
        assert!(!glob_match("exact", "exact/not"));
        assert!(glob_match("exact", "exact"));
    }

    #[test]
    fn audit_table_parse() {
        let md = "# Audit\n\n| File | Context | Ordering | Role |\n|---|---|---|---|\n\
                  | crates/x/src/lib.rs | `stop.load(` | SeqCst | stop flag — pairs with store |\n";
        let rows = parse_audit(md);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].fragment, "stop.load(");
        assert_eq!(rows[0].ordering, "SeqCst");
    }

    #[test]
    fn schema_parse_ignores_comments() {
        let e = parse_schema("# c\ncounter a/b\nhistogram net/req/* # per-kind\n\n");
        assert_eq!(e.len(), 2);
        assert_eq!(e[1], SchemaEntry { kind: "histogram".into(), name: "net/req/*".into() });
    }
}
