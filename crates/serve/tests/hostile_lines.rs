//! Hostile lines never panic the protocol decoders.
//!
//! `parse_json`, `Request::decode` and `Response::decode` each return a
//! value or an error for any line: random text over the JSON alphabet,
//! golden transcript lines with characters deleted, inserted, replaced or
//! a slice repeated, and arrays and objects nested far past the parser's
//! depth cap. A request that still decodes must survive its own
//! re-encoding.

use proptest::prelude::*;
use serve::json::parse_json;
use serve::protocol::{Request, Response};

const TRANSCRIPTS: [&str; 6] = [
    include_str!("golden/serve_closelink_figure1.txt"),
    include_str!("golden/serve_control_figure1.txt"),
    include_str!("golden/serve_family_closelink_figure2.txt"),
    include_str!("golden/serve_family_control_figure1.txt"),
    include_str!("golden/serve_generic_figure1.txt"),
    include_str!("golden/serve_partner_figure1.txt"),
];

/// Every request and response line of the golden transcripts.
fn valid_lines() -> Vec<&'static str> {
    TRANSCRIPTS
        .iter()
        .flat_map(|t| t.lines())
        .filter_map(|l| l.strip_prefix(">>> ").or_else(|| l.strip_prefix("<<< ")))
        .collect()
}

/// Feeds one line to all three decoders.
fn decode_all(line: &str) {
    let _ = parse_json(line);
    if let Ok(req) = Request::decode(line) {
        let again = Request::decode(&req.encode()).expect("a decoded request re-encodes");
        assert_eq!(again.encode(), req.encode());
    }
    if let Ok(resp) = Response::decode(line) {
        let _ = resp.encode();
    }
}

fn json_char() -> impl Strategy<Value = char> {
    prop::sample::select(
        "{}[]\":,\\ \t\n0123456789.-+eEtrufalsn\u{0}\u{7f}é€😀ux/"
            .chars()
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn random_lines_never_panic(chars in prop::collection::vec(json_char(), 0..96)) {
        decode_all(&chars.into_iter().collect::<String>());
    }

    #[test]
    fn mutated_transcript_lines_never_panic(
        pick in any::<u64>(),
        edits in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>(), json_char()), 1..4),
    ) {
        let lines = valid_lines();
        let mut chars: Vec<char> = lines[(pick % lines.len() as u64) as usize].chars().collect();
        for (kind, a, b, c) in edits {
            let n = chars.len() as u64 + 1;
            let (i, j) = ((a % n) as usize, (b % n) as usize);
            let (lo, hi) = (i.min(j), i.max(j));
            match kind {
                0 => {
                    chars.drain(lo..hi);
                }
                1 => chars.insert(i, c),
                2 if i < chars.len() => chars[i] = c,
                _ => {
                    let slice = chars[lo..hi].to_vec();
                    chars.splice(hi..hi, slice);
                }
            }
        }
        decode_all(&chars.into_iter().collect::<String>());
    }
}

#[test]
fn transcript_lines_decode() {
    for line in valid_lines() {
        assert!(parse_json(line).is_ok(), "{line}");
        assert!(
            Request::decode(line).is_ok() || Response::decode(line).is_ok(),
            "{line}"
        );
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let n = 200_000;
    let lines = [
        "[".repeat(n),
        "[".repeat(n) + &"]".repeat(n),
        "{\"a\":".repeat(n) + "1" + &"}".repeat(n),
        "{\"op\":\"query\",\"goal\":".to_owned() + &"[".repeat(n),
    ];
    for line in &lines {
        assert!(parse_json(line).is_err());
        assert!(Request::decode(line).is_err());
        assert!(Response::decode(line).is_err());
    }
}

#[test]
fn a_long_string_decodes_in_linear_time() {
    // A ~900 KB goal, mostly plain text with multi-byte characters and
    // escapes mixed in, just under the 1 MiB frame cap: a string must
    // parse in time linear in its length, or one request under the cap
    // holds a server thread for seconds.
    let goal = r#"control(\"n0\", X)? é\" "#.repeat(36_000);
    let line = format!("{{\"id\":1,\"op\":\"query\",\"goal\":\"{goal}\"}}");
    assert!(
        line.len() > 900_000 && line.len() < 1 << 20,
        "{}",
        line.len()
    );
    let start = std::time::Instant::now();
    let req = Request::decode(&line).expect("a long goal decodes");
    let took = start.elapsed();
    match req.op {
        serve::protocol::Op::Query { goal } => {
            assert_eq!(goal, r#"control("n0", X)? é" "#.repeat(36_000))
        }
        other => panic!("expected a query, got {other:?}"),
    }
    assert!(took.as_secs_f64() < 0.5, "decode took {took:?}");
}
