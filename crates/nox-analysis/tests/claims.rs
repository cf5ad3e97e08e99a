//! Integration tests binding the claims registry to EXPERIMENTS.md and
//! exercising golden round-trips of the cheap versioned JSON schemas.
//!
//! The expensive harnesses (fig8/fig9/fig10/... drive full simulations)
//! are exercised by `noxsim claims --smoke` in CI, not here; these tests
//! must stay fast enough for the default `cargo test` tier.

use std::collections::BTreeSet;

use nox_analysis::claims::REGISTRY;
use nox_analysis::harness::{self, fig13, figs237, table1, table2};
use nox_analysis::{Json, Tier};
use nox_exec::Executor;

fn experiments_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("could not read {path}: {e}"))
}

/// Every `claim:<id>` tag in a line, in order.
fn claim_tags(line: &str) -> Vec<&str> {
    let mut tags = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("claim:") {
        let id = &rest[at + "claim:".len()..];
        let end = id
            .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'))
            .unwrap_or(id.len());
        tags.push(&id[..end]);
        rest = &id[end..];
    }
    tags
}

/// A markdown table separator (`|---|---|`) or alignment row.
fn is_separator(line: &str) -> bool {
    line.chars().all(|c| matches!(c, '|' | '-' | ':' | ' '))
}

#[test]
fn every_registry_claim_is_cited_in_experiments_md() {
    let text = experiments_md();
    for spec in &REGISTRY {
        assert!(
            text.contains(&format!("claim:{}", spec.id)),
            "claim {} is in the registry but never cited in EXPERIMENTS.md",
            spec.id
        );
    }
}

#[test]
fn every_numeric_experiments_table_row_carries_a_known_claim_id() {
    let known: BTreeSet<&str> = REGISTRY.iter().map(|s| s.id).collect();
    let text = experiments_md();
    let mut tagged_rows = 0;
    for line in text.lines() {
        let l = line.trim();
        // Only table rows; headers carry no digits, data rows all do.
        if !l.starts_with('|') || is_separator(l) || !l.chars().any(|c| c.is_ascii_digit()) {
            continue;
        }
        let tags = claim_tags(l);
        assert!(
            !tags.is_empty(),
            "EXPERIMENTS.md table row states a number but carries no claim tag:\n  {l}"
        );
        for tag in tags {
            assert!(
                known.contains(tag),
                "EXPERIMENTS.md row cites unknown claim {tag:?}:\n  {l}"
            );
        }
        tagged_rows += 1;
    }
    // Guards against the extractor silently matching nothing.
    assert!(
        tagged_rows >= 30,
        "only {tagged_rows} tagged numeric rows found; did the table format change?"
    );
}

/// Serialize -> parse -> serialize must be the identity for every schema
/// (the serializer is canonical, so string equality is the strongest
/// round-trip check available without structural Eq on floats).
fn assert_round_trips(doc: Json, want_schema: &str) {
    let s = doc.to_string();
    let parsed = Json::parse(&s).expect("emitted JSON must parse");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(want_schema)
    );
    assert_eq!(parsed.to_string(), s, "round-trip changed {want_schema}");
}

#[test]
fn cheap_harness_schemas_round_trip() {
    // Each typed result's document round-trips on its schema, and the
    // harness-table row of the same name reports exactly that result's
    // two views and its own verdict.
    let check = |name: &str, text: String, json: Json, ok: bool, schema: &str| {
        assert_round_trips(json.clone(), schema);
        let row = harness::find(name).expect("in the table");
        let report = (row.run)(Tier::Quick, &Executor::sequential());
        assert_eq!(report.json, json, "{name}");
        assert_eq!(report.text, text, "{name}");
        assert_eq!(report.ok, ok, "{name}");
    };
    let r = figs237::run(Tier::Quick);
    let ok = r.all_pass();
    check(
        "figs237",
        r.render(),
        r.to_json(),
        ok,
        "nox-bench/figs237/v1",
    );
    let r = table1::run(Tier::Quick);
    check(
        "table1",
        r.render(),
        r.to_json(),
        true,
        "nox-bench/table1/v1",
    );
    let r = table2::run(Tier::Quick);
    let ok = r.all_match();
    check("table2", r.render(), r.to_json(), ok, "nox-bench/table2/v1");
    let r = fig13::run(Tier::Quick);
    check(
        "fig13",
        r.render(),
        r.to_json(),
        true,
        "nox-bench/fig13_area/v1",
    );
}

#[test]
fn timing_and_area_claims_hold_at_every_tier() {
    // These two harnesses are tier-independent and anchor four
    // quantitative claims; pin them directly so a timing-model edit
    // fails here before the full claims run.
    for tier in [Tier::Full, Tier::Quick, Tier::Smoke] {
        assert!(figs237::run(tier).all_pass(), "golden traces diverged");
        assert!(table2::run(tier).all_match(), "Table 2 clocks diverged");
    }
    let area = fig13::run(Tier::Quick);
    assert!(area.matches_paper(), "area model diverged from the paper");
}
