//! Smoke mode: every workload, untraced and traced, at the smallest
//! size (one repeat of each phase, one window of updates) through the
//! same code the benchmark runs. Every correctness gate must pass, and
//! the metric names must be exactly those `BENCHMARK.json` declares.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::metrics::{MetricSpec, END_TO_END, PER_LAYER};
use perfbench::{run, Options, WORKLOADS};
use std::collections::BTreeMap;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Json::value(bytes, &mut pos);
        Json::skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing input after JSON value");
        value
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && b[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        Json::skip_ws(b, pos);
        match b[*pos] {
            b'{' => {
                *pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    Json::skip_ws(b, pos);
                    if b[*pos] == b'}' {
                        *pos += 1;
                        return Json::Obj(map);
                    }
                    let Json::Str(key) = Json::value(b, pos) else {
                        panic!("object key")
                    };
                    Json::skip_ws(b, pos);
                    assert_eq!(b[*pos], b':');
                    *pos += 1;
                    assert!(
                        map.insert(key, Json::value(b, pos)).is_none(),
                        "duplicate key"
                    );
                    Json::skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'[' => {
                *pos += 1;
                let mut items = Vec::new();
                loop {
                    Json::skip_ws(b, pos);
                    if b[*pos] == b']' {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    items.push(Json::value(b, pos));
                    Json::skip_ws(b, pos);
                    if b[*pos] == b',' {
                        *pos += 1;
                    }
                }
            }
            b'"' => {
                let start = *pos + 1;
                let end = start
                    + b[start..]
                        .iter()
                        .position(|&c| c == b'"')
                        .expect("closed string");
                *pos = end + 1;
                Json::Str(String::from_utf8(b[start..end].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                let word = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|w| b[*pos..].starts_with(w))
                    .expect("literal");
                *pos += word.len();
                match word {
                    b"true" => Json::Bool(true),
                    b"false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = *pos;
                while *pos < b.len()
                    && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *pos += 1;
                }
                Json::Num(
                    std::str::from_utf8(&b[start..*pos])
                        .unwrap()
                        .parse()
                        .expect("number"),
                )
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => panic!("not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(map) => map.keys().map(String::as_str).collect(),
            _ => panic!("not an object"),
        }
    }
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn specs(list: &[MetricSpec]) -> Vec<(String, String)> {
    list.iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_passes_its_gates_and_emits_the_declared_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let doc = Json::parse(&text);
    assert_eq!(declared(&doc, "end_to_end"), specs(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), specs(PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run(&Options {
                workload,
                seed: 1,
                seconds: 1.0,
                trace,
                smoke: true,
            });
            assert_eq!(outcome.error, None, "{} trace={trace}", workload.name);
            outcome.remove_stores().expect("stores are removable");
            let line = Json::parse(&outcome.result_line(trace));
            assert_eq!(line.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), &Json::Bool(true));
            let emitted: Vec<&str> = line.get("metrics").keys();
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let mut expected: Vec<&str> = expected.iter().map(|s| s.name).collect();
            expected.sort_unstable();
            assert_eq!(emitted, expected, "{} trace={trace}", workload.name);
            if !trace {
                for spec in END_TO_END {
                    let Json::Num(v) = line.get("metrics").get(spec.name).get("value") else {
                        panic!("{} is not a number", spec.name)
                    };
                    assert!(*v > 0.0, "{} reads {v} on {}", spec.name, workload.name);
                }
            }
        }
    }
}
