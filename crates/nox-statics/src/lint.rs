//! `detlint`: a source-level determinism lint for the workspace.
//!
//! The claims/caching story rests on artifacts being byte-identical
//! across runs and thread counts. The runtime guards that with
//! byte-compare tests; this lint guards it *statically* by scanning for
//! the three ways nondeterminism has historically crept into simulators:
//!
//! - `unordered_iter` — iterating a variable declared as a hash
//!   container (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for _ in
//!   map`): iteration order varies per process, so anything folded from
//!   it can differ run to run. Checked in every crate.
//! - `unordered_collection` — *declaring* a hash container at all inside
//!   an artifact-feeding crate. Stricter than `unordered_iter` (even
//!   membership-only maps get flagged) because a later refactor can add
//!   iteration without revisiting the declaration; ordered `BTreeMap` /
//!   `BTreeSet` cost nothing at these sizes.
//! - `wall_clock` — `Instant::now()` / `SystemTime::now()`: real-time
//!   reads must never feed simulated results, only the span profiler
//!   (`nox-telemetry`).
//! - `thread_count` — `available_parallelism`: worker-pool width must
//!   size fan-out, never change output.
//!
//! Escape hatch: a `// detlint: allow(rule, rule)` comment suppresses
//! those rules on its own line and the line directly below it.
//!
//! The scanner is a *lint*, not a parser: it masks comments and string /
//! char literals with a small state machine (so rule names in strings —
//! including this crate's own sources — never self-flag), then pattern
//! matches on what remains. Fixture directories (any path component
//! named `fixtures`) are skipped during directory walks but scanned when
//! named explicitly, which is how CI proves the lint still fires.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose outputs end up in machine-checked artifacts; hash
/// container *declarations* are banned here outright.
pub const ARTIFACT_CRATES: &[&str] = &[
    "nox",
    "nox-analysis",
    "nox-fault",
    "nox-power",
    "nox-probe",
    "nox-sim",
    "nox-statics",
    "nox-telemetry",
    "nox-traffic",
];

/// Crates (by `crates/<dir>` name) whose sources may carry
/// `allow(wall_clock)` directives: the span profiler, the one crate
/// whose job is reading the wall clock. The allowlist audit ([`audit_path`])
/// flags a wall-clock allow anywhere else — the directive suppresses the
/// lint, so the audit is what keeps real-time reads from quietly
/// spreading into the simulation and analysis crates under cover of an
/// `allow`.
pub const WALL_CLOCK_ALLOW_CRATES: &[&str] = &["nox-telemetry"];

/// The lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Iteration over a hash-container variable.
    UnorderedIter,
    /// Hash-container declaration in an artifact-feeding crate.
    UnorderedCollection,
    /// Wall-clock read.
    WallClock,
    /// Thread-count query.
    ThreadCount,
}

impl Rule {
    /// All rules.
    pub const ALL: [Rule; 4] = [
        Rule::UnorderedIter,
        Rule::UnorderedCollection,
        Rule::WallClock,
        Rule::ThreadCount,
    ];

    /// The name used in findings and `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered_iter",
            Rule::UnorderedCollection => "unordered_collection",
            Rule::WallClock => "wall_clock",
            Rule::ThreadCount => "thread_count",
        }
    }

    /// Inverse of [`Rule::name`].
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// File the finding is in (as given to the scanner).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Comments and the *contents* of string/char literals replaced by
/// spaces (newlines kept), plus the comment text collected per line for
/// directive parsing.
struct Masked {
    code: String,
    comments: Vec<String>,
}

fn mask_source(src: &str) -> Masked {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        CharLit,
    }
    let mut code = String::with_capacity(src.len());
    let mut comments: Vec<String> = vec![String::new()];
    let mut line = 0usize;
    let mut state = State::Normal;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            code.push('\n');
            comments.push(String::new());
            line += 1;
            if state == State::LineComment {
                state = State::Normal;
            }
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    code.push('"');
                    i += 1;
                } else if c == 'r' && raw_str_hashes(&chars, i).is_some() {
                    let hashes = raw_str_hashes(&chars, i).unwrap();
                    state = State::RawStr(hashes);
                    for _ in 0..(hashes as usize + 2) {
                        code.push(' ');
                    }
                    i += hashes as usize + 2;
                } else if c == '\'' && is_char_literal(&chars, i) {
                    state = State::CharLit;
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comments[line].push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    code.push_str("  ");
                    i += 2;
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    comments[line].push_str("/*");
                    code.push_str("  ");
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    comments[line].push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Keep line accounting intact across `\`-newline
                    // string continuations.
                    if chars.get(i + 1) == Some(&'\n') {
                        code.push_str(" \n");
                        comments.push(String::new());
                        line += 1;
                    } else {
                        code.push_str("  ");
                    }
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    for _ in 0..(hashes as usize + 1) {
                        code.push(' ');
                    }
                    i += hashes as usize + 1;
                    state = State::Normal;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::CharLit => {
                if c == '\\' {
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    code.push('\'');
                    state = State::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    Masked { code, comments }
}

/// `r`, `r#`, `r##`... followed by `"` starting at `i` (which holds the
/// `r`); returns the hash count.
fn raw_str_hashes(chars: &[char], i: usize) -> Option<u32> {
    // An identifier character before the `r` means this is the tail of a
    // longer identifier, not a raw-string prefix.
    if i > 0 && is_ident_char(chars[i - 1]) {
        return None;
    }
    let mut j = i + 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes a char literal from a lifetime: `'a` (lifetime) has an
/// identifier char after the quote and no closing quote right behind it.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some(&c) if is_ident_char(c) => chars.get(i + 2) == Some(&'\''),
        Some(_) => true, // escape, punctuation, quote: a char literal
        None => false,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `true` if `pat` occurs in `s` delimited by non-identifier characters.
fn word_bounded(s: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = s[from..].find(pat) {
        let start = from + pos;
        let end = start + pat.len();
        let pre_ok = start == 0 || !is_ident_char(s[..start].chars().next_back().unwrap());
        let post_ok = end == s.len() || !is_ident_char(s[end..].chars().next().unwrap());
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// Names of variables/fields declared on this masked line as a hash
/// container. Heuristics: `let [mut] NAME` on the line, or the
/// identifier directly before a `:` type ascription.
fn declared_hash_names(code_line: &str) -> Vec<String> {
    if !HASH_TYPES.iter().any(|t| word_bounded(code_line, t)) {
        return Vec::new();
    }
    let mut names = Vec::new();
    // `let mut name` / `let name`
    let toks: Vec<&str> = code_line
        .split(|c: char| !is_ident_char(c))
        .filter(|t| !t.is_empty())
        .collect();
    if let Some(p) = toks.iter().position(|&t| t == "let") {
        let mut q = p + 1;
        if toks.get(q) == Some(&"mut") {
            q += 1;
        }
        if let Some(name) = toks.get(q) {
            names.push((*name).to_string());
        }
    } else {
        // Field or binding ascription: `name: path::HashMap<..>`.
        if let Some(colon) = code_line.find(':') {
            let before = &code_line[..colon];
            if let Some(name) = before
                .split(|c: char| !is_ident_char(c))
                .rfind(|t| !t.is_empty())
            {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// `detlint: allow(...)` directives in the file's comments, as
/// (0-based line, rule) pairs in line order.
fn allow_directives(comments: &[String]) -> Vec<(usize, Rule)> {
    let mut out = Vec::new();
    for (ln, comment) in comments.iter().enumerate() {
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find("detlint: allow(") {
            rest = &rest[pos + "detlint: allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            for name in rest[..close].split(',') {
                if let Some(rule) = Rule::parse(name.trim()) {
                    out.push((ln, rule));
                }
            }
            rest = &rest[close..];
        }
    }
    out
}

/// Scans one source text. `file` labels findings; `artifact_crate`
/// enables the declaration-level `unordered_collection` rule.
pub fn scan_source(file: &str, src: &str, artifact_crate: bool) -> Vec<Finding> {
    let masked = mask_source(src);
    let code_lines: Vec<&str> = masked.code.lines().collect();
    let src_lines: Vec<&str> = src.lines().collect();

    // Allow directives: each applies to its own line and the next.
    let mut allowed: Vec<BTreeSet<Rule>> = vec![BTreeSet::new(); code_lines.len() + 1];
    for (ln, rule) in allow_directives(&masked.comments) {
        if ln < allowed.len() {
            allowed[ln].insert(rule);
        }
        if ln + 1 < allowed.len() {
            allowed[ln + 1].insert(rule);
        }
    }

    // Pass 1: hash-container variable names declared anywhere in the file.
    let mut hash_vars: BTreeSet<String> = BTreeSet::new();
    for line in &code_lines {
        hash_vars.extend(declared_hash_names(line));
    }

    let mut findings: BTreeSet<Finding> = BTreeSet::new();
    let push = |findings: &mut BTreeSet<Finding>, ln: usize, rule: Rule| {
        if allowed[ln].contains(&rule) {
            return;
        }
        findings.insert(Finding {
            file: file.to_string(),
            line: ln + 1,
            rule,
            excerpt: src_lines.get(ln).unwrap_or(&"").trim().to_string(),
        });
    };

    for (ln, code) in code_lines.iter().enumerate() {
        if word_bounded(code, "Instant") && code.contains("Instant::now")
            || word_bounded(code, "SystemTime") && code.contains("SystemTime::now")
        {
            push(&mut findings, ln, Rule::WallClock);
        }
        if word_bounded(code, "available_parallelism") {
            push(&mut findings, ln, Rule::ThreadCount);
        }
        if artifact_crate && HASH_TYPES.iter().any(|t| word_bounded(code, t)) {
            push(&mut findings, ln, Rule::UnorderedCollection);
        }
        for var in &hash_vars {
            let method_hit = ITER_METHODS
                .iter()
                .any(|m| code.contains(&format!("{var}{m}")));
            let for_hit = word_bounded(code, "for")
                && word_bounded(code, "in")
                && word_bounded(code, var)
                && code
                    .find(" in ")
                    .is_some_and(|p| word_bounded(&code[p + 4..], var));
            if method_hit || for_hit {
                push(&mut findings, ln, Rule::UnorderedIter);
            }
        }
    }
    findings.into_iter().collect()
}

/// Which workspace crate a path belongs to: the component after a
/// `crates` component, if any.
fn crate_of(path: &Path) -> Option<String> {
    let comps: Vec<String> = path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    comps
        .iter()
        .position(|c| c == "crates")
        .and_then(|i| comps.get(i + 1))
        .cloned()
}

/// Scans a file, or recursively a directory tree, of `.rs` sources.
/// Directory walks skip `target` and any `fixtures` component;
/// explicitly named files are always scanned.
///
/// # Errors
///
/// Propagates I/O errors from reading the tree.
pub fn scan_path(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    if root.is_file() {
        files.push(root.to_path_buf());
    } else {
        collect_rs_files(root, &mut files)?;
        files.sort();
    }
    let mut findings = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(&f)?;
        let artifact = crate_of(&f)
            .map(|c| ARTIFACT_CRATES.contains(&c.as_str()))
            .unwrap_or(false);
        findings.extend(scan_source(&f.display().to_string(), &src, artifact));
    }
    Ok(findings)
}

/// One allowlist-audit violation: an `allow(...)` directive in a crate
/// the policy does not permit to carry it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AuditFinding {
    /// File the directive is in.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// The rule the directive suppresses.
    pub rule: Rule,
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: allow({}) outside the permitted crates ({})",
            self.file,
            self.line,
            self.rule,
            WALL_CLOCK_ALLOW_CRATES.join(", ")
        )
    }
}

/// Audits one source text's `allow` directives against the policy:
/// `wall_clock` allows are permitted only in [`WALL_CLOCK_ALLOW_CRATES`]
/// (`crate_name` is the `crates/<dir>` component; `None` — a path
/// outside the workspace layout — permits nothing). The other rules'
/// allows are unrestricted: suppressing `thread_count` on a pool-sizing
/// line is the directive's intended use anywhere.
pub fn audit_source(file: &str, src: &str, crate_name: Option<&str>) -> Vec<AuditFinding> {
    let masked = mask_source(src);
    allow_directives(&masked.comments)
        .into_iter()
        .filter(|(_, rule)| {
            *rule == Rule::WallClock
                && !crate_name.is_some_and(|c| WALL_CLOCK_ALLOW_CRATES.contains(&c))
        })
        .map(|(ln, rule)| AuditFinding {
            file: file.to_string(),
            line: ln + 1,
            rule,
        })
        .collect()
}

/// Audits a file, or recursively a directory tree, of `.rs` sources
/// against the allowlist policy. Walks the same set of files as
/// [`scan_path`].
///
/// # Errors
///
/// Propagates I/O errors from reading the tree.
pub fn audit_path(root: &Path) -> std::io::Result<Vec<AuditFinding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    if root.is_file() {
        files.push(root.to_path_buf());
    } else {
        collect_rs_files(root, &mut files)?;
        files.sort();
    }
    let mut findings = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(&f)?;
        let crate_name = crate_of(&f);
        findings.extend(audit_source(
            &f.display().to_string(),
            &src,
            crate_name.as_deref(),
        ));
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_wall_clock_reads() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = scan_source("x.rs", src, false);
        assert_eq!(rules(&f), vec![Rule::WallClock]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn flags_system_time_and_thread_count() {
        let src = "fn f() { let _ = SystemTime::now(); }\nfn g() { let _ = std::thread::available_parallelism(); }\n";
        let f = scan_source("x.rs", src, false);
        assert_eq!(rules(&f), vec![Rule::WallClock, Rule::ThreadCount]);
    }

    #[test]
    fn flags_hash_iteration_via_methods_and_for_loops() {
        let src = "fn f() {\n    let mut m = HashMap::new();\n    for (k, v) in m.iter() { }\n    for k in &m { }\n}\n";
        let f = scan_source("x.rs", src, false);
        // Line 3 and 4 both iterate; line 2 declares (not flagged outside
        // artifact crates).
        assert_eq!(
            f.iter().map(|x| (x.line, x.rule)).collect::<Vec<_>>(),
            vec![(3, Rule::UnorderedIter), (4, Rule::UnorderedIter)]
        );
    }

    #[test]
    fn flags_declarations_only_in_artifact_crates() {
        let src = "struct S {\n    index: std::collections::HashSet<u64>,\n}\n";
        assert!(scan_source("x.rs", src, false).is_empty());
        let f = scan_source("x.rs", src, true);
        assert_eq!(rules(&f), vec![Rule::UnorderedCollection]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let src = "fn f() {\n    // detlint: allow(wall_clock)\n    let t = Instant::now();\n    let u = Instant::now();\n}\n";
        let f = scan_source("x.rs", src, false);
        assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn trailing_allow_directive_works() {
        let src = "fn f() { let t = Instant::now(); } // detlint: allow(wall_clock)\n";
        assert!(scan_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn allow_parses_multiple_rules() {
        let src = "// detlint: allow(wall_clock, thread_count)\nlet t = (Instant::now(), available_parallelism());\n";
        assert!(scan_source("x.rs", src, false).is_empty());
    }

    #[test]
    fn patterns_inside_strings_and_comments_do_not_fire() {
        let src = "fn f() {\n    let s = \"Instant::now() HashMap\";\n    let r = r#\"SystemTime::now()\"#;\n    // Instant::now() in a comment\n    /* HashSet<u64> in a block comment */\n}\n";
        assert!(scan_source("x.rs", src, true).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_confuse_the_masker() {
        let src = "fn f<'a>(x: &'a str) -> char {\n    let q = '\"';\n    let t = Instant::now();\n    q\n}\n";
        let f = scan_source("x.rs", src, false);
        assert_eq!(rules(&f), vec![Rule::WallClock]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn unknown_allow_rule_is_ignored() {
        let src = "// detlint: allow(no_such_rule)\nlet t = Instant::now();\n";
        assert_eq!(
            rules(&scan_source("x.rs", src, false)),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn findings_are_sorted_and_display_cleanly() {
        let src = "let t = Instant::now();\nlet m: HashMap<u8, u8> = HashMap::new();\n";
        let f = scan_source("z.rs", src, true);
        let shown: Vec<String> = f.iter().map(|x| x.to_string()).collect();
        assert!(shown[0].starts_with("z.rs:1: wall_clock:"), "{shown:?}");
        assert!(shown[1].starts_with("z.rs:2: unordered_collection:"));
    }

    #[test]
    fn rule_names_roundtrip() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.name()), Some(r));
        }
        assert_eq!(Rule::parse("bogus"), None);
    }

    #[test]
    fn audit_flags_wall_clock_allows_outside_permitted_crates() {
        let src = "fn f() {\n    let t = Instant::now(); // detlint: allow(wall_clock)\n}\n";
        // Simulation/analysis crates must not carry the directive.
        let f = audit_source("crates/nox-sim/src/sim.rs", src, Some("nox-sim"));
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (2, Rule::WallClock));
        assert!(f[0].to_string().contains("allow(wall_clock)"));
        // Nor may the probe: its reports hold simulated time only.
        let f = audit_source("crates/nox-probe/src/lib.rs", src, Some("nox-probe"));
        assert_eq!(f.len(), 1);
        // The span profiler may.
        for ok in WALL_CLOCK_ALLOW_CRATES {
            assert!(audit_source("x.rs", src, Some(ok)).is_empty(), "{ok}");
        }
        // Outside the workspace layout nothing is permitted.
        assert_eq!(audit_source("x.rs", src, None).len(), 1);
    }

    #[test]
    fn audit_ignores_other_rules_and_strings() {
        let src = "// detlint: allow(thread_count, unordered_iter)\n\
                   let s = \"detlint: allow(wall_clock)\";\n";
        assert!(audit_source("x.rs", src, Some("nox-sim")).is_empty());
    }

    #[test]
    fn workspace_wall_clock_allows_obey_the_policy() {
        // The live audit over this workspace's own sources: every
        // wall-clock allow must sit in a permitted crate.
        // Canonicalized so `crate_of` sees one clean `crates/<dir>`
        // component (the manifest-relative path has a `../..` in it).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../crates")
            .canonicalize()
            .expect("workspace crates/ exists");
        let findings = audit_path(&root).expect("scan workspace");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(
            crate_of(Path::new("crates/nox-sim/src/sim.rs")),
            Some("nox-sim".to_string())
        );
        assert_eq!(crate_of(Path::new("shims/rand/src/lib.rs")), None);
    }
}
