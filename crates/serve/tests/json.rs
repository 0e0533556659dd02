//! The JSON parser as the wire sees it. `vendor/serde_json` is outside the
//! workspace, so its guarantees are pinned here, through
//! [`prov_serve::protocol::decode`] — the call every serve and replication
//! control payload goes through: linear-time strings, a nesting limit
//! instead of a stack overflow, strict `\u` escapes, and a typed error
//! (never a panic) for whatever bytes a peer sends.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use serde_json::Value;

fn decode(bytes: &[u8]) -> std::io::Result<Value> {
    prov_serve::protocol::decode(bytes)
}

fn decode_str(doc: &str) -> Result<String, String> {
    match decode(doc.as_bytes()) {
        Ok(Value::Str(s)) => Ok(s),
        Ok(other) => Err(format!("not a string: {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

// ------------------------------------------------------------ nesting limit

/// A frame of `[[[[…` used to recurse once per byte and overflow the
/// session thread's stack, aborting the daemon. Run on a thread with the
/// default 2 MiB stack, like a session.
#[test]
fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
    std::thread::spawn(|| {
        for open in ["[", "{\"k\":", "[{\"k\":"] {
            let err = decode(open.repeat(100_000).as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
        // The limit is the real crate's: 127 levels parse, the 128th is refused.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(decode(nested(127).as_bytes()).is_ok());
        assert!(decode(nested(128).as_bytes()).is_err());
        // Breadth is not depth.
        assert!(decode(format!("[{}[]]", "[],".repeat(10_000)).as_bytes()).is_ok());
    })
    .join()
    .unwrap();
}

// ------------------------------------------------------------- \u escapes

#[test]
fn unicode_escapes_need_four_hex_digits_and_paired_surrogates() {
    assert_eq!(decode_str(r#""\u0041\u00e9\u20ac""#).unwrap(), "Aé€");
    assert_eq!(decode_str(r#""\ud83d\ude00""#).unwrap(), "😀");
    assert_eq!(decode_str(r#""\uD83D\uDE00!""#).unwrap(), "😀!");
    for bad in [
        r#""\ud800\u0041""#, // high surrogate, then a non-surrogate escape
        r#""\ud800A""#,
        r#""\ud800\ud800""#, // high, high
        r#""\ud800""#,       // high, then the end of the string
        r#""\ud800x""#,
        r#""\udc00""#, // a lone low surrogate
        r#""\u+041""#, // `from_str_radix` used to take the sign
        r#""\u-041""#,
        r#""\u 041""#,
        r#""\u00g1""#,
        r#""\u00é""#, // two bytes of one character are not two digits
        r#""\u12"#,   // truncated
        r#""\u"#,
        r#""\"#,
        r#""\x41""#,
    ] {
        assert!(decode_str(bad).is_err(), "{bad} must be refused");
    }
}

// ------------------------------------------------------------ linear time

/// A string document of about `len` bytes: mostly ASCII, with multi-byte
/// characters and escapes so every branch of the scanner runs.
fn string_document(len: usize) -> String {
    let mut doc = String::with_capacity(len + 128);
    doc.push('"');
    while doc.len() < len {
        doc.push_str(r#"provenance of a workflow é€😀 \n\" \u00e9 0123456789 abcdefghijklmnop "#);
    }
    doc.push('"');
    doc
}

/// Best per-byte decode time of `doc` over `rounds` rounds of `reps`.
fn per_byte(doc: &str, rounds: usize, reps: usize) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(decode(std::hint::black_box(doc.as_bytes())).unwrap());
        }
        best = best.min(start.elapsed());
    }
    best.as_secs_f64() / (reps * doc.len()) as f64
}

/// The scanner used to re-validate the rest of the buffer per character,
/// so a 4 MiB string cost ~1000× more per byte than a 4 KiB one. Linear
/// means the same per byte; 4× leaves room for caches and a loaded box.
#[test]
fn string_decode_time_is_linear_in_length() {
    let (small, big) = (string_document(4 << 10), string_document(4 << 20));
    let small_ns = per_byte(&small, 8, 128) * 1e9;
    let big_ns = per_byte(&big, 4, 1) * 1e9;
    assert!(
        big_ns <= 4.0 * small_ns,
        "4 MiB decodes at {big_ns:.3} ns/byte, 4 KiB at {small_ns:.3} ns/byte"
    );
}

// ---------------------------------------------------------- hostile input

/// splitmix64, so a failing case replays from its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Characters that exercise the string scanner's run boundaries: quotes
/// and backslashes next to multi-byte and astral-plane characters,
/// control characters, the edges of the surrogate gap.
const AWKWARD: &str =
    "aZ0 \"\\/\n\r\t\u{08}\u{0c}\u{00}\u{1f}\u{7f}éß€\u{d7ff}\u{e000}\u{ffff}😀\u{10000}\u{10ffff}";

fn awkward_string(rng: &mut Rng) -> String {
    let pool: Vec<char> = AWKWARD.chars().collect();
    (0..rng.below(12)).map(|_| pool[rng.below(pool.len())]).collect()
}

/// A random JSON tree, `depth` levels at most.
fn tree(rng: &mut Rng, depth: usize) -> Value {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next() & 1 == 1),
        2 => Value::Int(rng.next() as i64 >> rng.below(64)),
        3 => Value::Float((rng.next() as i64 >> 12) as f64 / 1024.0),
        4 => Value::Str(awkward_string(rng)),
        5 => Value::Array((0..rng.below(4)).map(|_| tree(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(4)).map(|_| (awkward_string(rng), tree(rng, depth - 1))).collect(),
        ),
    }
}

/// Bytes a hostile or broken peer might put in a control frame: raw
/// noise, JSON-alphabet noise, or a valid frame with a few bytes flipped,
/// dropped, inserted or cut off.
fn hostile(seed: u64) -> Vec<u8> {
    const ALPHABET: &[u8] = b"[]{}\",:\\u0123456789abcdefDd8-+.eEtrufalsn \n\xc3\xa9\xf0\x9f\xff";
    let mut rng = Rng(seed);
    match rng.below(3) {
        0 => (0..rng.below(64)).map(|_| rng.next() as u8).collect(),
        1 => (0..rng.below(64)).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect(),
        _ => {
            let mut frame = serde_json::to_vec(&tree(&mut rng, 4)).unwrap();
            for _ in 0..1 + rng.below(3) {
                if frame.is_empty() {
                    break;
                }
                let at = rng.below(frame.len());
                match rng.below(4) {
                    0 => frame[at] = rng.next() as u8,
                    1 => drop(frame.remove(at)),
                    2 => frame.insert(at, ALPHABET[rng.below(ALPHABET.len())]),
                    _ => frame.truncate(at),
                }
            }
            frame
        }
    }
}

/// Typed error or valid — and what decodes survives its own round trip.
fn refuses_or_decodes(bytes: &[u8]) {
    if let Ok(v) = decode(bytes) {
        let again = decode(&serde_json::to_vec(&v).unwrap()).unwrap();
        assert_eq!(again, v, "{:?}", String::from_utf8_lossy(bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn hostile_payloads_get_a_typed_error_or_decode(seed in any::<u64>()) {
        refuses_or_decodes(&hostile(seed));
    }

    /// `from_str(to_string(s)) == s` over strings built from the awkward
    /// characters, and the same through the all-`\u` spelling a foreign
    /// encoder might choose (surrogate pairs for the astral plane).
    #[test]
    fn strings_round_trip(seed in any::<u64>()) {
        let s = awkward_string(&mut Rng(seed));
        let doc = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(decode_str(&doc).unwrap(), s.clone(), "{}", doc);
        let mut escaped = String::from("\"");
        for unit in s.encode_utf16() {
            escaped.push_str(&format!("\\u{unit:04x}"));
        }
        escaped.push('"');
        prop_assert_eq!(decode_str(&escaped).unwrap(), s, "{}", escaped);
    }
}

/// The randomized pass: same generator, seed from `CRASH_TORTURE_SEED`
/// (printed, so a failure replays).
#[test]
fn seeded_hostile_payloads_get_a_typed_error_or_decode() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("wire-json seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let mut rng = Rng(seed);
    for _ in 0..20_000 {
        refuses_or_decodes(&hostile(rng.next()));
    }
}
