//! DESIGN.md describes the tree as it stands, not as it got there. Three
//! checks keep it from decaying into history:
//!
//! * every "DESIGN.md §N" or "DESIGN.md section N" under `crates/`,
//!   `.github/` and `.claude/` and in README.md names a `## N.` heading;
//! * every repository path DESIGN.md or README.md names exists;
//! * every backticked snake_case (with an underscore) or CamelCase
//!   identifier in DESIGN.md occurs as a word under `crates/`,
//!   `benchmark/`, `scripts/` or `.github/`, file names included.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(name: &str) -> String {
    fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every UTF-8 file under `dir`, path relative to the repository root,
/// sorted. Build output (`target/`) is skipped.
fn texts(dir: &str) -> Vec<(String, String)> {
    let root = root();
    let mut out = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if entry.file_name() != "target" {
                    stack.push(path);
                }
            } else if let Ok(text) = fs::read_to_string(&path) {
                let rel = path.strip_prefix(&root).unwrap_or(&path);
                out.push((rel.display().to_string(), text));
            }
        }
    }
    out.sort();
    out
}

fn skip(s: &str, f: impl Fn(char) -> bool) -> &str {
    s.trim_start_matches(f)
}

/// Whitespace and the comment leaders a citation can break across.
fn gap(c: char) -> bool {
    c.is_whitespace() || "/!#*".contains(c)
}

/// The section numbers `text` cites as "DESIGN.md §N" or "DESIGN.md
/// section(s) N", lists such as "§17, §19" and "sections 17 and 19"
/// included.
fn cited_sections(text: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for (at, name) in text.match_indices("DESIGN.md") {
        let rest = skip(&text[at + name.len()..], |c| gap(c) || "`(,".contains(c));
        let Some(mut rest) = rest
            .strip_prefix('§')
            .or_else(|| rest.strip_prefix("sections"))
            .or_else(|| rest.strip_prefix("section"))
        else {
            continue;
        };
        loop {
            rest = skip(rest, gap);
            let digits = rest.len() - skip(rest, |c| c.is_ascii_digit()).len();
            if digits == 0 {
                break;
            }
            out.push(rest[..digits].parse().expect("a section number"));
            let after = skip(&rest[digits..], gap);
            let Some(next) = after
                .strip_prefix(',')
                .or_else(|| after.strip_prefix("and "))
                .or_else(|| after.strip_prefix('-'))
            else {
                break;
            };
            let next = skip(next, gap);
            rest = next.strip_prefix('§').unwrap_or(next);
        }
    }
    out
}

#[test]
fn every_cited_design_section_exists() {
    let design = read("DESIGN.md");
    let headings: BTreeSet<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## ")?.split_once('.')?.0.parse().ok())
        .collect();
    assert!(headings.contains(&1), "no numbered headings in DESIGN.md");
    let mut sources = vec![("README.md".to_string(), read("README.md"))];
    for dir in ["crates", ".github", ".claude"] {
        sources.extend(texts(dir));
    }
    let missing: Vec<String> = sources
        .iter()
        .flat_map(|(file, text)| {
            cited_sections(text)
                .into_iter()
                .filter(|n| !headings.contains(n))
                .map(move |n| format!("{file}: DESIGN.md §{n}"))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "citations of sections DESIGN.md does not have:\n{}",
        missing.join("\n")
    );
}

fn path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_.-/".contains(c)
}

#[test]
fn every_named_repository_path_exists() {
    let root = root();
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = read(doc);
        for top in [
            "crates/",
            "benchmark/",
            "scripts/",
            "shims/",
            ".github/",
            ".claude/",
        ] {
            for (at, _) in text.match_indices(top) {
                if text[..at].chars().next_back().is_some_and(path_char) {
                    continue;
                }
                let run = &text[at..];
                let end = run.find(|c| !path_char(c)).unwrap_or(run.len());
                let path = run[..end].trim_end_matches(['.', ',']);
                if !root.join(path).exists() {
                    missing.push(format!("{doc}: {path}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "paths that do not exist:\n{}",
        missing.join("\n")
    );
}

fn is_snake(w: &str) -> bool {
    w.starts_with(|c: char| c.is_ascii_lowercase())
        && w.contains('_')
        && !w.ends_with('_')
        && w.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn is_camel(w: &str) -> bool {
    let mut chars = w.chars();
    chars.next().is_some_and(|c| c.is_ascii_uppercase())
        && chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.any(|c| c.is_ascii_uppercase())
        && w.chars().all(|c| c.is_ascii_alphanumeric())
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The inline code spans of a markdown text, fenced blocks left out. A
/// span does not cross a paragraph.
fn code_spans<'a>(text: &'a str) -> Vec<&'a str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    let mut paragraph_start = 0;
    let mut offset = 0;
    let flush = |from: usize, to: usize, spans: &mut Vec<&'a str>| {
        spans.extend(text[from..to].split('`').skip(1).step_by(2));
    };
    for line in text.split_inclusive('\n') {
        let trimmed = line.trim();
        if trimmed.starts_with("```") || trimmed.is_empty() || fenced {
            if !fenced {
                flush(paragraph_start, offset, &mut spans);
            }
            if trimmed.starts_with("```") {
                fenced = !fenced;
            }
            paragraph_start = offset + line.len();
        }
        offset += line.len();
    }
    flush(paragraph_start, offset, &mut spans);
    spans
}

#[test]
fn every_backticked_identifier_in_design_exists() {
    let mut known = BTreeSet::new();
    for dir in ["crates", "benchmark", "scripts", ".github"] {
        // This file's own examples do not count.
        for (path, text) in texts(dir)
            .into_iter()
            .filter(|(path, _)| !path.ends_with("design_doc.rs"))
        {
            known.extend(words(&path).map(str::to_string));
            known.extend(words(&text).map(str::to_string));
        }
    }
    let design = read("DESIGN.md");
    let unknown: BTreeSet<&str> = code_spans(&design)
        .into_iter()
        .flat_map(words)
        .filter(|w| (is_snake(w) || is_camel(w)) && !known.contains(*w))
        .collect();
    assert!(
        unknown.is_empty(),
        "DESIGN.md names identifiers no code has: {unknown:?}"
    );
}

#[test]
fn the_scanners_find_what_they_should() {
    assert_eq!(
        cited_sections("(DESIGN.md\n    # section 13) and DESIGN.md §14, §15 then"),
        [13, 14, 15]
    );
    assert_eq!(
        cited_sections("`DESIGN.md` sections 16 and 8; DESIGN.md §2.4"),
        [16, 8, 2]
    );
    assert!(cited_sections("DESIGN.md, clarification 4").is_empty());
    assert_eq!(
        code_spans("a `x` b\n\n```\n`no`\n```\nc `y\nz` d"),
        ["x", "y\nz"]
    );
    assert!(is_snake("try_map") && !is_snake("PortSet") && !is_snake("MAX_PORTS"));
    assert!(is_camel("PortSet") && !is_camel("Coded") && !is_camel("IDLE"));
}
