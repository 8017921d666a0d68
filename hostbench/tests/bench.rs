//! The benchmark's own test: every workload at tiny scale and a fixed
//! seed, run through the real binary.
//!
//! Checks that every metric `BENCHMARK.json` names prints with its unit,
//! that the last line has exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`, that the deterministic counters repeat exactly
//! across two runs, and that the layer shares sum to 1. Whether the
//! program's outputs are correct is the benchmark's verdict, not this
//! test's: the test checks only that `correct` agrees with `failed` and
//! that both repeat. Run with `cargo test --release`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use obs::json::{parse, Json};

const WORKLOADS: [&str; 5] = [
    "nfs_read_hit",
    "nfs_write_back",
    "nfs_openloop",
    "http_web",
    "nfs_mixed_miss",
];
const SEED: &str = "7";

/// Allocation counts over the reference batches.
const ALLOCS: [&str; 3] = [
    "rig.allocs_per_op",
    "rig.alloc_bytes_per_op",
    "engine.allocs_per_op",
];
/// Workloads whose hash maps only grow during the reference batches. On
/// the others, entries are inserted and evicted all the time; std's
/// `HashMap` seeds its hasher at random per process, and that moves the
/// point where a table rehashes in place or grows, so an allocation can
/// come or go between runs (about one in 3,000 operations was seen).
const EXACT_ALLOCS: [&str; 2] = ["nfs_read_hit", "nfs_openloop"];

/// Work counters over the reference batches: pure functions of the seed,
/// so they must repeat exactly.
const DETERMINISTIC: [&str; 23] = [
    "rig.calls_per_op",
    "ncache.lookups_per_op",
    "ncache.hit_ratio",
    "ncache.substituted_pkts_per_op",
    "ncache.insertions_per_op",
    "ncache.remaps_per_op",
    "ncache.evictions_per_op",
    "simfs.cache_ops_per_op",
    "simfs.cache_hit_ratio",
    "simfs.evictions_per_op",
    "simfs.dirty_flushes_per_op",
    "netbuf.payload_bytes_copied_per_op",
    "netbuf.meta_bytes_copied_per_op",
    "netbuf.logical_copies_per_op",
    "netbuf.buffer_allocs_per_op",
    "proto.csum_bytes_per_op",
    "proto.csum_inherited_per_op",
    "proto.wire_bytes_per_op",
    "servers.iscsi_cmds_per_op",
    "servers.second_level_hits_per_op",
    "servers.admission_failures_per_op",
    "blockdev.bursts_per_op",
    "blockdev.blocks_per_op",
];

/// One run's output: its text and the parsed last line.
struct Run {
    stdout: String,
    last: Json,
}

impl Run {
    fn metric(&self, name: &str) -> (f64, String) {
        let m = self
            .last
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("metric {name} missing:\n{}", self.stdout));
        let value = m
            .get("value")
            .and_then(Json::as_num)
            .expect("numeric value");
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .expect("unit")
            .to_string();
        (value, unit)
    }
}

fn run(workload: &str, trace: &str) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "0",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = parse(stdout.lines().last().expect("some output")).expect("last line is JSON");
    Run { stdout, last }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_shape(r: &Run, section: &str) {
    let keys: Vec<&str> = r
        .last
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let failed = r
        .last
        .get("failed")
        .and_then(Json::as_num)
        .expect("failed is a number");
    assert_eq!(
        r.last.get("correct"),
        Some(&Json::Bool(failed == 0.0)),
        "{}",
        r.stdout
    );
    assert!(
        r.last
            .get("attempted")
            .and_then(Json::as_num)
            .unwrap_or(0.0)
            >= 1.0
    );
    let want = declared(section);
    assert_eq!(
        r.last.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
        Some(want.len())
    );
    for (name, unit) in want {
        let (value, got) = r.metric(&name);
        assert_eq!(got, unit, "unit of {name}");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            r.stdout.contains(&format!(" {name} "))
                && r.stdout.contains(&format!(" {unit} samples=")),
            "{name} is not printed with its unit and sample count"
        );
    }
    assert!(r.stdout.contains("host host_cpus="), "host record missing");
}

#[test]
fn every_workload_prints_every_metric_and_repeats_its_counters() {
    for w in WORKLOADS {
        let plain = run(w, "0");
        check_shape(&plain, "end_to_end");
        for m in [
            "ops_per_s",
            "op_p50_us",
            "op_p99_us",
            "allocs_per_op",
            "setup_s",
        ] {
            assert!(plain.metric(m).0 > 0.0, "{w}: {m} is 0");
        }

        let (a, b) = (run(w, "1"), run(w, "1"));
        check_shape(&a, "per_layer");
        let values = |r: &Run| -> BTreeMap<&str, f64> {
            DETERMINISTIC.iter().map(|&m| (m, r.metric(m).0)).collect()
        };
        assert_eq!(
            values(&a),
            values(&b),
            "{w}: counters differ between identical runs"
        );
        for m in ALLOCS {
            let (x, y) = (a.metric(m).0, b.metric(m).0);
            if EXACT_ALLOCS.contains(&w) {
                assert_eq!(x, y, "{w}: {m} differs between identical runs");
            } else {
                assert!((x - y).abs() <= 1e-3 * x.max(y), "{w}: {m} is {x} then {y}");
            }
        }
        assert_eq!(
            a.last.get("failed"),
            b.last.get("failed"),
            "{w}: verdicts differ between identical runs"
        );
        // The untraced run counts allocations over the same batches.
        let split = a.metric("rig.allocs_per_op").0 + a.metric("engine.allocs_per_op").0;
        let total = plain.metric("allocs_per_op").0;
        assert!(
            (split - total).abs() <= 1e-3 * total,
            "{w}: rig + engine allocations {split} vs {total}"
        );

        for r in [&a, &b] {
            let sum: f64 = [
                "rig.share",
                "engine.share",
                "workload.share",
                "unattributed.share",
            ]
            .iter()
            .map(|&m| r.metric(m).0)
            .sum();
            assert!((sum - 1.0).abs() < 1e-9, "{w}: layer shares sum to {sum}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "http_web", "--trace", "2"],
        &["--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
