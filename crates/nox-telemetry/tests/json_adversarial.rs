//! Fuzz-style corpus for the handwritten JSON parser.
//!
//! The `noxsim serve` daemon parses client-supplied request lines with
//! [`nox_telemetry::json::Json::parse`], so the parser's failure mode on
//! hostile input must be a clean `Err` — never a panic, unbounded
//! recursion, or an allocation explosion. Each test here feeds a family
//! of adversarial documents through the parser; the test harness itself
//! asserts "no panic" (a panic fails the test), and the assertions pin
//! the error-vs-ok split where it matters.

use nox_telemetry::json::{Json, MAX_DEPTH};

/// splitmix64 — the workspace's standard deterministic test RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A representative valid document exercising every value kind.
const VALID: &str = r#"{"schema":"nox-serve/req/v1","req":"sweep","id":"a\n\"b","tier":"smoke","rates":[500,1000.5,-2e3],"len":1,"ok":true,"none":null,"nested":{"xs":[{"y":[]}]}}"#;

#[test]
fn every_truncation_of_a_valid_document_errors_cleanly() {
    // A torn write can cut a line anywhere; every prefix must parse to
    // a clean result (almost always Err), never panic.
    for end in 0..VALID.len() {
        if !VALID.is_char_boundary(end) {
            continue;
        }
        let _ = Json::parse(&VALID[..end]);
    }
    // The only prefix that parses is the full document.
    assert!(Json::parse(VALID).is_ok());
    for end in 1..VALID.len() {
        if VALID.is_char_boundary(end) {
            assert!(
                Json::parse(&VALID[..end]).is_err(),
                "proper prefix of length {end} should be malformed"
            );
        }
    }
}

#[test]
fn seeded_byte_mutations_never_panic() {
    // Flip, insert, and delete bytes at seeded positions. Mutations may
    // produce invalid UTF-8 (skipped: parse takes &str) or by luck a
    // valid document; the property under test is "no panic, bounded
    // work".
    let mut state = 0x5EED_CAFE_F00D_0001u64;
    for _ in 0..2_000 {
        let mut bytes = VALID.as_bytes().to_vec();
        let kind = splitmix64(&mut state) % 3;
        let at = (splitmix64(&mut state) as usize) % bytes.len();
        let b = (splitmix64(&mut state) & 0x7F) as u8;
        match kind {
            0 => bytes[at] = b,
            1 => bytes.insert(at, b),
            _ => {
                bytes.remove(at);
            }
        }
        if let Ok(s) = std::str::from_utf8(&bytes) {
            let _ = Json::parse(s);
        }
    }
}

#[test]
fn malformed_corpus_all_error() {
    let deep = "[".repeat(MAX_DEPTH + 10);
    let deep_obj = r#"{"a":"#.repeat(MAX_DEPTH + 10);
    let corpus: Vec<String> = vec![
        String::new(),
        " ".to_string(),
        "nul".to_string(),
        "truefalse".to_string(),
        "{]".to_string(),
        "[}".to_string(),
        "[1 2]".to_string(),
        "{\"a\":1,}".to_string(),
        "{\"a\":1 \"b\":2}".to_string(),
        "{1:2}".to_string(),
        "\"unterminated".to_string(),
        "\"bad escape \\x\"".to_string(),
        "\"\\u d800\"".to_string(),
        "\"\\udfff\"".to_string(),
        "01e".to_string(),
        "+1".to_string(),
        "1e".to_string(),
        "1e+".to_string(),
        "--1".to_string(),
        "1e9999999999".to_string(),
        "-1e9999999999".to_string(),
        format!("1{}", "0".repeat(400)), // u64 overflow -> f64 inf -> error
        deep.clone(),
        format!("{deep}1"),
        deep_obj,
        "[[[[\"a\"".to_string(),
        "{\"a\"".to_string(),
        "{\"a\":".to_string(),
        "[1,".to_string(),
        "1 1".to_string(),
        "null null".to_string(),
    ];
    for doc in &corpus {
        assert!(
            Json::parse(doc).is_err(),
            "{:?}... should be malformed",
            &doc[..doc.len().min(40)]
        );
    }
}

#[test]
fn huge_but_legal_documents_stay_bounded() {
    // Wide (not deep) structures are legal and must parse in linear
    // time/space: 50k-element array, 10k-key object, 100 KiB string.
    let wide = format!("[{}]", vec!["7"; 50_000].join(","));
    assert_eq!(
        Json::parse(&wide).unwrap().as_array().unwrap().len(),
        50_000
    );
    let obj = format!(
        "{{{}}}",
        (0..10_000)
            .map(|i| format!("\"k{i}\":{i}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert!(Json::parse(&obj).is_ok());
    let long = format!("\"{}\"", "x".repeat(100_000));
    assert_eq!(
        Json::parse(&long).unwrap().as_str().map(str::len),
        Some(100_000)
    );
}
