//! Fuzzing the text the program reads from outside it: `wrsnd` request and
//! response lines, trace JSONL lines, checkpoint files, and the JSON parser
//! under all of them.
//!
//! Inputs are arbitrary byte strings, and single-byte flips, insertions and
//! truncations of valid lines and files. The bar is no panic, and every
//! value the parser accepts must re-encode, and re-parse to the same bytes.
//! Parse time is not measured here.

use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Value;
use wrsn::charge::EarliestDeadlineFirst;
use wrsn::scenario::Scenario;
use wrsn::sim::obs;
use wrsn::sim::{store, AuditConfig, FaultConfig, FaultPlan, NullRecorder};
use wrsn_bench::service::request;

/// Bytes JSON gives a meaning to: strings over them reach deeper into the
/// parser than uniform bytes do.
const JSON_BYTES: &[u8] = b"{}[]\",:0123456789-+.eE \\/ntrufalsbxyz\x01\xc3\xa9";

/// Feeds `text` to every line parser. None may panic; a value the JSON
/// parser accepts must re-encode to bytes that parse to the same bytes.
fn check_line(text: &str) {
    if let Ok(value) = serde_json::from_str::<Value>(text) {
        let once = serde_json::to_string(&value)
            .unwrap_or_else(|e| panic!("{text:?} parsed but does not re-encode: {e}"));
        let again: Value = serde_json::from_str(&once)
            .unwrap_or_else(|e| panic!("{text:?} re-encoded as {once:?}, which fails: {e}"));
        assert_eq!(serde_json::to_string(&again).unwrap(), once, "{text:?}");
    }
    let _ = request::parse_line(text, 0);
    let _ = request::parse_response(text);
    let _ = obs::from_jsonl_line(text);
}

/// A byte: `pick` below 256 is itself, above it one of [`JSON_BYTES`].
fn byte(pick: u16) -> u8 {
    match u8::try_from(pick) {
        Ok(b) => b,
        Err(_) => JSON_BYTES[pick as usize % JSON_BYTES.len()],
    }
}

/// Overwrites (`op` 0), inserts (1) or truncates (2) at `at` modulo the
/// length.
fn mutate(bytes: &mut Vec<u8>, (op, at, pick): (u8, usize, u16)) {
    let at = at % (bytes.len() + 1);
    match op {
        0 if at < bytes.len() => bytes[at] = byte(pick),
        0 | 1 => bytes.insert(at, byte(pick)),
        _ => bytes.truncate(at),
    }
}

/// Valid lines of every kind the line parsers read.
fn valid_lines() -> Vec<String> {
    let event = r#"{"v":1,"record":{"Event":{"t_s":0.5,"event":{"NodeDied":{"node":[3]}}}}}"#;
    let counters = r#"{"v":1,"record":{"Counters":{"scope":"fig\"2","counters":[["deaths",12]]}}}"#;
    let records = [event, counters].map(|line| obs::from_jsonl_line(line).unwrap());
    vec![
        r#"{"id":"q1","exp":"fig2","deadline_s":30}"#.to_string(),
        r#"{"id":"q2","scenario":{"nodes":40,"seed":7,"horizon_s":2e4,"deployment":"corridor"},"stream":true,"detector":"lax"}"#.to_string(),
        request::ok_line("q\u{e9}", "00deadbeef00cafe", "miss", 1.5, r#"{"x":[-2.5e-3,null]}"#, None),
        request::error_line("q9", "bad \\ news\n"),
        request::progress_line("q2", 3, 1250.0, &records),
        event.to_string(),
        counters.to_string(),
    ]
}

/// The header line `store::save` writes over `payload`.
fn header_line(payload: &[u8]) -> Vec<u8> {
    let (len, fnv) = (payload.len(), store::fnv1a64(payload));
    format!("WRSNCKPT v1 len={len} fnv={fnv:016x}\n").into_bytes()
}

/// A checkpoint of a small audited, fault-injected world mid-run, written
/// to `path`: its header line and its payload.
fn checkpoint(path: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    let scenario = Scenario::paper_scale(6, 3);
    let audit = AuditConfig::preset("default").unwrap().with_seed(3);
    let mut world = scenario.build().with_audit(audit);
    let faults = FaultPlan::generate(3, 6, scenario.horizon_s, &FaultConfig::uniform(2));
    world.set_fault_plan(faults);
    let stop_s = 0.3 * scenario.horizon_s;
    let mut policy = EarliestDeadlineFirst::new();
    let _ = world.run_with_progress(&mut policy, &mut NullRecorder, 1.0, &mut |t, _| t < stop_s);
    store::save(path, &world.snapshot()).unwrap();
    let mut file = std::fs::read(path).unwrap();
    let payload = file.split_off(file.iter().position(|&b| b == b'\n').unwrap() + 1);
    assert_eq!(file, header_line(&payload), "the store's header format");
    (file, payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn arbitrary_bytes_never_panic_a_parser(picks in prop::collection::vec(0u16..512, 0..48)) {
        let bytes: Vec<u8> = picks.into_iter().map(byte).collect();
        check_line(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_lines_never_panic_a_parser(
        which in 0usize..64,
        edits in prop::collection::vec((0u8..3, 0usize..4096, 0u16..512), 1..4),
    ) {
        let lines = valid_lines();
        let mut bytes = lines[which % lines.len()].clone().into_bytes();
        edits.into_iter().for_each(|edit| mutate(&mut bytes, edit));
        check_line(&String::from_utf8_lossy(&bytes));
    }

    /// Half the cases keep the edits under a header that declares their
    /// true length and checksum, so the load gets past the header checks to
    /// the decoder.
    #[test]
    fn mutated_checkpoints_never_panic_the_loader(
        reheader in 0u8..2,
        edits in prop::collection::vec((0u8..3, 0usize..1 << 20, 0u16..512), 1..4),
    ) {
        static FILE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
        let path = std::path::Path::new(concat!(env!("CARGO_TARGET_TMPDIR"), "/input_fuzz.ckpt"));
        let (header, payload) = FILE.get_or_init(|| checkpoint(path));
        let mut bytes = if reheader == 1 { payload.clone() } else { [&header[..], payload].concat() };
        edits.into_iter().for_each(|edit| mutate(&mut bytes, edit));
        if reheader == 1 {
            bytes = [header_line(&bytes), bytes].concat();
        }
        std::fs::write(path, &bytes).unwrap();
        let _ = store::load(path);
    }
}

/// Parser faults found while these fuzzers were written, shrunk: `1e400`
/// parsed to an infinity nothing could re-encode, `-0` lost its sign, and
/// `\u+0e9` took a sign for a hex digit. Later, numbers with leading zeros
/// or bare decimal points, and strings holding raw control characters,
/// parsed although they are not JSON. `serde_json`'s unit tests pin each.
#[test]
fn parser_regressions_stay_fixed() {
    for text in [
        "1e400",
        "-0.0",
        "-0",
        r#""\u+0e9""#,
        r#"{"id":"x","exp":[[[["#,
    ] {
        check_line(text);
    }
    for text in [
        "01",
        "-01",
        "1.",
        "00.5",
        "1.e5",
        "\"\x01\"",
        "{\"id\":\"a\tb\",\"exp\":\"fig2\"}",
    ] {
        check_line(text);
        assert!(
            serde_json::from_str::<Value>(text).is_err(),
            "{text:?} is not JSON"
        );
    }
}
