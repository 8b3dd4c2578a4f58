//! Property tests for the wire codec: `parse ∘ dump` is the identity
//! on arbitrary JSON values, and every [`Command`] round-trips through
//! its wire form unchanged.

use std::time::Instant;

use dmp_service::command::{
    AskSpec, CellSpec, ColType, Command, CurveSpec, LicenseSpec, OfferSpec, TableSpec, TaskSpec,
};
use dmp_service::wire::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

/// Arbitrary JSON trees, bounded in depth and width.
struct ArbJson {
    max_depth: u32,
}

fn arb_string(rng: &mut TestRng) -> String {
    // Bias toward characters that stress the escaper: quotes,
    // backslashes, control characters, multi-byte UTF-8.
    const POOL: &[char] = &[
        'a',
        'b',
        'z',
        'A',
        '0',
        '9',
        ' ',
        '_',
        '-',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0001}',
        '\u{001f}',
        'é',
        'π',
        '→',
        '\u{1F600}',
        '\u{FFFD}',
    ];
    let len = rng.gen_range(0usize..12);
    (0..len)
        .map(|_| POOL[rng.gen_range(0usize..POOL.len())])
        .collect()
}

fn arb_number(rng: &mut TestRng) -> f64 {
    match rng.gen_range(0u32..5) {
        0 => 0.0,
        1 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        2 => rng.gen_range(-1e9f64..1e9),
        3 => rng.gen_range(-1.0f64..1.0) * 1e-9,
        _ => rng.gen_range(-1.0f64..1.0) * 1e18,
    }
}

fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
    let leaf_only = depth == 0;
    match rng.gen_range(0u32..if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen::<bool>()),
        2 => Json::Num(arb_number(rng)),
        3 => Json::Str(arb_string(rng)),
        4 => {
            let len = rng.gen_range(0usize..4);
            Json::Arr((0..len).map(|_| arb_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0usize..4);
            Json::Obj(
                (0..len)
                    .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Long JSON string literals, as `(wire text, decoded value)`: plain
/// ASCII runs of up to a few hundred bytes mixed with short escapes,
/// raw multi-byte characters, `\uXXXX` escapes and surrogate pairs, so
/// every kind of piece lands at both ends of a long plain run.
struct ArbLongLiteral;

fn push_long_literal_piece(rng: &mut TestRng, text: &mut String, decoded: &mut String) {
    const PLAIN: &[u8] = b"abcxyzABCXYZ0123456789 _-.,:;{}[]/";
    const SHORT: &[(&str, char)] = &[
        ("\\\"", '"'),
        ("\\\\", '\\'),
        ("\\/", '/'),
        ("\\b", '\u{0008}'),
        ("\\f", '\u{000c}'),
        ("\\n", '\n'),
        ("\\r", '\r'),
        ("\\t", '\t'),
    ];
    const RAW: &[char] = &[
        'é',
        'π',
        '→',
        '\u{7f}',
        '\u{FFFD}',
        '\u{1F600}',
        '\u{10FFFF}',
    ];
    const BMP: &[char] = &[
        'A', '"', '\u{0001}', '\u{001f}', 'é', '→', '\u{FFFD}', '\u{e000}',
    ];
    const ASTRAL: &[char] = &['\u{10000}', '\u{1D11E}', '\u{1F600}', '\u{10FFFF}'];
    match rng.gen_range(0u32..6) {
        0 | 1 => {
            let len = rng.gen_range(1usize..400);
            for _ in 0..len {
                let c = PLAIN[rng.gen_range(0usize..PLAIN.len())] as char;
                text.push(c);
                decoded.push(c);
            }
        }
        2 => {
            let (escape, c) = SHORT[rng.gen_range(0usize..SHORT.len())];
            text.push_str(escape);
            decoded.push(c);
        }
        3 => {
            let c = RAW[rng.gen_range(0usize..RAW.len())];
            text.push(c);
            decoded.push(c);
        }
        4 => {
            let c = BMP[rng.gen_range(0usize..BMP.len())];
            let escape = format!("\\u{:04x}", c as u32);
            // JSON hex digits are case-insensitive.
            if rng.gen::<bool>() {
                text.push_str(&escape.to_uppercase().replacen("\\U", "\\u", 1));
            } else {
                text.push_str(&escape);
            }
            decoded.push(c);
        }
        _ => {
            let c = ASTRAL[rng.gen_range(0usize..ASTRAL.len())];
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                text.push_str(&format!("\\u{unit:04x}"));
            }
            decoded.push(c);
        }
    }
}

impl Strategy for ArbLongLiteral {
    type Value = (String, String);
    fn generate(&self, rng: &mut TestRng) -> (String, String) {
        let target = rng.gen_range(200usize..4000);
        let mut text = String::from('"');
        let mut decoded = String::new();
        while decoded.len() < target {
            push_long_literal_piece(rng, &mut text, &mut decoded);
        }
        text.push('"');
        (text, decoded)
    }
}

/// Tails that make a string literal malformed, each placed after a
/// long plain run.
const BAD_TAILS: &[&str] = &[
    "\u{0001}\"",
    "\u{001f}\"",
    "\n\"",
    "\\x\"",
    "\\u12g4\"",
    "\\u+041\"",
    "\\u12",
    "\\ud800x\"",
    "\\ud800\"",
    "\\ud800\\u0041\"",
    "\\udc00\"",
    "\\",
    "",
];

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        arb_json(rng, self.max_depth)
    }
}

/// Arbitrary commands covering every variant and spec shape.
struct ArbCommand;

fn arb_name(rng: &mut TestRng) -> String {
    let len = rng.gen_range(1usize..10);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
        .collect()
}

fn arb_curve(rng: &mut TestRng) -> CurveSpec {
    match rng.gen_range(0u32..3) {
        0 => CurveSpec::Constant(rng.gen_range(0.0f64..500.0)),
        1 => CurveSpec::Linear {
            min_satisfaction: rng.gen_range(0.0f64..1.0),
            max_price: rng.gen_range(0.0f64..500.0),
        },
        _ => {
            let steps = rng.gen_range(1usize..4);
            CurveSpec::Step(
                (0..steps)
                    .map(|_| (rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..500.0)))
                    .collect(),
            )
        }
    }
}

fn arb_task(rng: &mut TestRng) -> TaskSpec {
    match rng.gen_range(0u32..4) {
        0 => TaskSpec::AttributeCoverage,
        1 => TaskSpec::Classification {
            label: arb_name(rng),
        },
        2 => TaskSpec::Regression {
            target: arb_name(rng),
        },
        _ => TaskSpec::AggregateCompleteness {
            group_by: arb_name(rng),
            expected_groups: rng.gen_range(1u64..100),
        },
    }
}

fn arb_license(rng: &mut TestRng) -> LicenseSpec {
    match rng.gen_range(0u32..4) {
        0 => LicenseSpec::Standard,
        1 => LicenseSpec::Exclusive {
            tax_rate: rng.gen_range(0.0f64..2.0),
            hold_rounds: rng.gen_range(0u32..10),
        },
        2 => LicenseSpec::OwnershipTransfer,
        _ => LicenseSpec::NonTransferable,
    }
}

fn arb_table(rng: &mut TestRng) -> TableSpec {
    const TYPES: &[ColType] = &[
        ColType::Int,
        ColType::Float,
        ColType::Str,
        ColType::Bool,
        ColType::Timestamp,
    ];
    let cols = rng.gen_range(1usize..4);
    let columns: Vec<(String, ColType)> = (0..cols)
        .map(|i| {
            (
                format!("c{i}_{}", arb_name(rng)),
                TYPES[rng.gen_range(0usize..TYPES.len())],
            )
        })
        .collect();
    let rows = rng.gen_range(0usize..4);
    let rows = (0..rows)
        .map(|_| {
            columns
                .iter()
                .map(|(_, ty)| {
                    if rng.gen_bool(0.2) {
                        return CellSpec::Null;
                    }
                    match ty {
                        ColType::Int | ColType::Timestamp => {
                            CellSpec::Int(rng.gen_range(-1_000_000i64..1_000_000))
                        }
                        ColType::Float => CellSpec::Float(rng.gen_range(-1e6f64..1e6)),
                        ColType::Str => CellSpec::Str(arb_string(rng)),
                        ColType::Bool => CellSpec::Bool(rng.gen::<bool>()),
                    }
                })
                .collect()
        })
        .collect();
    TableSpec {
        name: arb_name(rng),
        columns,
        rows,
    }
}

fn arb_command(rng: &mut TestRng) -> Command {
    match rng.gen_range(0u32..6) {
        0 => Command::Enroll {
            name: arb_name(rng),
            role: arb_name(rng),
        },
        1 => Command::Deposit {
            account: arb_name(rng),
            amount: rng.gen_range(0.0f64..1e6),
        },
        2 => Command::SubmitOffer(OfferSpec {
            buyer: arb_name(rng),
            attributes: (0..rng.gen_range(1usize..4))
                .map(|_| arb_name(rng))
                .collect(),
            keywords: (0..rng.gen_range(0usize..3))
                .map(|_| arb_name(rng))
                .collect(),
            task: arb_task(rng),
            curve: arb_curve(rng),
            min_rows: rng.gen_range(1u64..50),
            purpose: arb_name(rng),
        }),
        3 => Command::SubmitAsk(AskSpec {
            seller: arb_name(rng),
            table: arb_table(rng),
            reserve: if rng.gen::<bool>() {
                Some(rng.gen_range(0.0f64..100.0))
            } else {
                None
            },
            license: if rng.gen::<bool>() {
                Some(arb_license(rng))
            } else {
                None
            },
        }),
        4 => Command::GrantLicense {
            seller: arb_name(rng),
            dataset: rng.gen_range(0u64..1000),
            license: arb_license(rng),
        },
        _ => Command::RunRound {
            rounds: rng.gen_range(1u64..8) as u32,
        },
    }
}

impl Strategy for ArbCommand {
    type Value = Command;
    fn generate(&self, rng: &mut TestRng) -> Command {
        arb_command(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_dump_parse_round_trips(value in ArbJson { max_depth: 4 }) {
        let text = value.dump();
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("dump produced unparseable JSON {text:?}: {e}"));
        prop_assert_eq!(back, value);
    }

    #[test]
    fn json_round_trip_is_stable(value in ArbJson { max_depth: 3 }) {
        // dump ∘ parse ∘ dump == dump (canonical form is a fixpoint).
        let once = value.dump();
        let twice = Json::parse(&once).unwrap().dump();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn long_string_literals_decode_exactly((text, decoded) in ArbLongLiteral) {
        prop_assert_eq!(Json::parse(&text).unwrap(), Json::Str(decoded.clone()));
        let value = Json::obj([(decoded.clone(), Json::Arr(vec![Json::Str(decoded)]))]);
        prop_assert_eq!(Json::parse(&value.dump()).unwrap(), value);
    }

    #[test]
    fn malformed_tail_after_long_run_is_rejected(
        (text, _) in ArbLongLiteral,
        tail in 0usize..BAD_TAILS.len(),
    ) {
        // The literal without its closing quote, a plain run, then a
        // bad tail.
        let prefix = format!("{}{}", &text[..text.len() - 1], "plain run ".repeat(40));
        let bad = format!("{prefix}{}", BAD_TAILS[tail]);
        match Json::parse(&bad) {
            Ok(v) => panic!("accepted malformed tail {:?}: {v:?}", BAD_TAILS[tail]),
            Err(e) => prop_assert!(
                e.pos >= prefix.len(),
                "error at byte {} reported inside the valid prefix ({} bytes): {}",
                e.pos,
                prefix.len(),
                e.msg
            ),
        }
    }

    #[test]
    fn commands_round_trip_through_wire(cmd in ArbCommand) {
        let encoded = cmd.encode().dump();
        let json = Json::parse(&encoded)
            .unwrap_or_else(|e| panic!("command encoded to bad JSON {encoded:?}: {e}"));
        let decoded = Command::decode(&json)
            .unwrap_or_else(|e| panic!("decode failed for {encoded:?}: {e}"));
        prop_assert_eq!(decoded, cmd);
    }
}

/// A document of about `bytes` bytes shaped like a state image: records
/// whose numbers travel as strings, so strings hold most of the bytes.
fn image_like(bytes: usize) -> String {
    let mut records = Vec::new();
    let mut len = 0;
    let mut i = 0u64;
    while len < bytes {
        let record = Json::obj([
            ("id", Json::str(i.to_string())),
            (
                "bits",
                Json::str(format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15))),
            ),
            ("name", Json::str(format!("acct-{i} \"q\" é\n"))),
            ("n", Json::Num(i as f64 * 0.5)),
        ]);
        len += record.dump().len() + 1;
        records.push(record);
        i += 1;
    }
    Json::Arr(records).dump()
}

/// Parsing a 16x larger document costs well under 64x as long. A parser
/// that rescans the rest of the document per string character pays
/// ~256x here, so the bound catches it with a wide margin for timer and
/// scheduler noise. Each size keeps its best of several interleaved runs.
#[test]
fn parse_time_is_linear_in_document_size() {
    let small = image_like(8 << 10);
    let large = image_like(128 << 10);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..5 {
        for (slot, doc) in best.iter_mut().zip([&small, &large]) {
            let started = Instant::now();
            let value = Json::parse(doc).unwrap();
            *slot = slot.min(started.elapsed().as_secs_f64());
            drop(std::hint::black_box(value));
        }
    }
    let ratio = best[1] / best[0];
    println!(
        "parse {} B: {:.3} ms, {} B: {:.3} ms, ratio {ratio:.1}",
        small.len(),
        best[0] * 1e3,
        large.len(),
        best[1] * 1e3
    );
    assert!(
        ratio < 64.0,
        "parse time grew {ratio:.1}x for a 16x larger document (linear ~16x, quadratic ~256x)"
    );
}
