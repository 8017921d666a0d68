//! Deterministic exporters: line-delimited JSON events and Chrome
//! trace-event JSON (`chrome://tracing` / Perfetto), plus the validators
//! the CLI and CI use to check emitted files.
//!
//! Determinism contract: both exporters are pure functions of the event
//! slice — fixed key order, fixed iteration order, fixed number
//! formatting — so identical event streams serialize to identical bytes.

use crate::json::{self, escape, Json};
use crate::recorder::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Chrome trace pid for data-plane (functional) events and request spans.
const PID_DATA: u32 = 1;
/// Chrome trace pid for FIFO-resource busy intervals.
const PID_RES: u32 = 2;
/// Chrome trace pid for counter/gauge series.
const PID_METRICS: u32 = 3;

/// Request spans spread across this many lanes so concurrent requests
/// render side by side instead of on one overloaded row.
const REQ_LANES: u64 = 32;

/// Simulated ns → Chrome's microsecond `ts`, with deterministic
/// fixed-point formatting (no float round-trip).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::SpanBegin { .. } => "span_begin",
        EventKind::SpanEnd => "span_end",
        EventKind::CacheAccess { .. } => "cache_access",
        EventKind::CacheInsert { .. } => "cache_insert",
        EventKind::Eviction { .. } => "eviction",
        EventKind::Remap => "remap",
        EventKind::Substitution { .. } => "substitution",
        EventKind::Writeback { .. } => "writeback",
        EventKind::Copy { .. } => "copy",
        EventKind::Request { .. } => "request",
        EventKind::ResourceBusy { .. } => "resource_busy",
        EventKind::Gauge { .. } => "gauge",
    }
}

/// Extra `"key":value` JSON fields for a kind (shared by both exporters'
/// args), in fixed order.
fn kind_fields(kind: &EventKind) -> Vec<(&'static str, String)> {
    match kind {
        EventKind::SpanBegin { op, config, bytes } => vec![
            ("op", format!("\"{}\"", escape(op))),
            ("config", format!("\"{}\"", escape(config))),
            ("bytes", bytes.to_string()),
        ],
        EventKind::SpanEnd | EventKind::Remap => vec![],
        EventKind::CacheAccess { tier, hit } => vec![
            ("tier", format!("\"{}\"", escape(tier))),
            ("hit", hit.to_string()),
        ],
        EventKind::CacheInsert { tier, dirty } => vec![
            ("tier", format!("\"{}\"", escape(tier))),
            ("dirty", dirty.to_string()),
        ],
        EventKind::Eviction { tier, class, dirty } => vec![
            ("tier", format!("\"{}\"", escape(tier))),
            ("class", format!("\"{}\"", escape(class))),
            ("dirty", dirty.to_string()),
        ],
        EventKind::Substitution {
            substituted,
            missing,
        } => vec![
            ("substituted", substituted.to_string()),
            ("missing", missing.to_string()),
        ],
        EventKind::Writeback { blocks } => vec![("blocks", blocks.to_string())],
        EventKind::Copy { category, bytes } => vec![
            ("category", format!("\"{}\"", escape(category))),
            ("bytes", bytes.to_string()),
        ],
        EventKind::Request {
            op,
            path,
            start_ns,
            end_ns,
            stages,
        } => {
            let mut arr = String::from("[");
            for (i, st) in stages.iter().enumerate() {
                if i > 0 {
                    arr.push(',');
                }
                let _ = write!(
                    arr,
                    "{{\"stage\":\"{}\",\"queue_ns\":{},\"service_ns\":{}}}",
                    escape(st.stage),
                    st.queue_ns,
                    st.service_ns
                );
            }
            arr.push(']');
            vec![
                ("op", format!("\"{}\"", escape(op))),
                ("path", format!("\"{}\"", escape(path))),
                ("start_ns", start_ns.to_string()),
                ("end_ns", end_ns.to_string()),
                ("stages", arr),
            ]
        }
        EventKind::ResourceBusy {
            resource,
            slot,
            start_ns,
            end_ns,
        } => vec![
            ("resource", format!("\"{}\"", escape(resource))),
            ("slot", slot.to_string()),
            ("start_ns", start_ns.to_string()),
            ("end_ns", end_ns.to_string()),
        ],
        EventKind::Gauge { name, value } => vec![
            ("name", format!("\"{}\"", escape(name))),
            ("value", format!("{value}")),
        ],
    }
}

/// Serializes events as line-delimited JSON, one object per event, oldest
/// first: `{"ts":<ns>,"req":<span>,"kind":"<kind>",...}`.
pub fn export_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(
            out,
            "{{\"ts\":{},\"req\":{},\"lane\":{},\"kind\":\"{}\"",
            ev.ts_ns,
            ev.req,
            ev.lane,
            kind_name(&ev.kind)
        );
        for (key, value) in kind_fields(&ev.kind) {
            let _ = write!(out, ",\"{key}\":{value}");
        }
        out.push_str("}\n");
    }
    out
}

fn args_json(fields: &[(&'static str, String)], extra: &[(&'static str, String)]) -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (key, value) in fields.iter().chain(extra.iter()) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{key}\":{value}");
    }
    out.push('}');
    out
}

/// Serializes events as a Chrome trace-event file (JSON object format)
/// keyed on simulated microseconds.
///
/// Layout: pid 1 "data-plane" carries the functional stream — span B/E
/// pairs and instant events on tid `1 + session-lane` (tid 1 for
/// single-session runs, one row per session otherwise) — plus
/// exactly-timed request intervals as "X" slices on `100 + session-lane`
/// (fanned over `REQ_LANES` rows when no session lane is set); pid 2
/// "resources" has one tid per (resource, slot) busy lane; pid 3
/// "metrics" carries "C" counter samples.
pub fn export_chrome_trace(events: &[Event]) -> String {
    // Assign resource lanes deterministically: sorted by (name, slot).
    let mut lanes: BTreeMap<(&str, u32), u32> = BTreeMap::new();
    for ev in events {
        if let EventKind::ResourceBusy { resource, slot, .. } = &ev.kind {
            let key = (*resource, *slot);
            let next = lanes.len() as u32 + 1;
            lanes.entry(key).or_insert(next);
        }
    }
    // Re-number in sorted order so insertion order cannot leak through.
    for (idx, (_, lane)) in lanes.iter_mut().enumerate() {
        *lane = idx as u32 + 1;
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    for (pid, name) in [
        (PID_DATA, "data-plane"),
        (PID_RES, "resources"),
        (PID_METRICS, "metrics"),
    ] {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
            &mut first,
        );
    }
    for ((resource, slot), lane) in &lanes {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":{PID_RES},\"tid\":{lane},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}#{slot}\"}}}}",
                escape(resource)
            ),
            &mut out,
            &mut first,
        );
    }

    for ev in events {
        let fields = kind_fields(&ev.kind);
        let line = match &ev.kind {
            EventKind::SpanBegin { op, .. } => format!(
                "{{\"ph\":\"B\",\"pid\":{PID_DATA},\"tid\":{},\"ts\":{},\"name\":\"{}\",\"args\":{}}}",
                1 + ev.lane,
                ts_us(ev.ts_ns),
                escape(op),
                args_json(&fields, &[("req", ev.req.to_string())]),
            ),
            EventKind::SpanEnd => format!(
                "{{\"ph\":\"E\",\"pid\":{PID_DATA},\"tid\":{},\"ts\":{}}}",
                1 + ev.lane,
                ts_us(ev.ts_ns),
            ),
            EventKind::Request { op, start_ns, end_ns, .. } => format!(
                "{{\"ph\":\"X\",\"pid\":{PID_DATA},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"args\":{}}}",
                if ev.lane != 0 { 100 + ev.lane } else { 100 + ev.req % REQ_LANES },
                ts_us(*start_ns),
                ts_us(end_ns.saturating_sub(*start_ns)),
                escape(op),
                args_json(&fields, &[("req", ev.req.to_string())]),
            ),
            EventKind::ResourceBusy {
                resource,
                slot,
                start_ns,
                end_ns,
            } => format!(
                "{{\"ph\":\"X\",\"pid\":{PID_RES},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"serve\",\"args\":{{\"req\":{}}}}}",
                lanes[&(*resource, *slot)],
                ts_us(*start_ns),
                ts_us(end_ns.saturating_sub(*start_ns)),
                ev.req,
            ),
            EventKind::Gauge { name, value } => format!(
                "{{\"ph\":\"C\",\"pid\":{PID_METRICS},\"tid\":0,\"ts\":{},\"name\":\"{}\",\"args\":{{\"{}\":{}}}}}",
                ts_us(ev.ts_ns),
                escape(name),
                escape(name),
                value,
            ),
            _ => format!(
                "{{\"ph\":\"i\",\"pid\":{PID_DATA},\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"args\":{}}}",
                1 + ev.lane,
                ts_us(ev.ts_ns),
                kind_name(&ev.kind),
                args_json(&fields, &[("req", ev.req.to_string())]),
            ),
        };
        push(line, &mut out, &mut first);
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

const KNOWN_KINDS: &[&str] = &[
    "span_begin",
    "span_end",
    "cache_access",
    "cache_insert",
    "eviction",
    "remap",
    "substitution",
    "writeback",
    "copy",
    "request",
    "resource_busy",
    "gauge",
];

fn required_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "span_begin" => &["op", "config", "bytes"],
        "cache_access" => &["tier", "hit"],
        "cache_insert" => &["tier", "dirty"],
        "eviction" => &["tier", "class", "dirty"],
        "substitution" => &["substituted", "missing"],
        "writeback" => &["blocks"],
        "copy" => &["category", "bytes"],
        "request" => &["op", "path", "start_ns", "end_ns", "stages"],
        "resource_busy" => &["resource", "slot", "start_ns", "end_ns"],
        "gauge" => &["name", "value"],
        _ => &[],
    }
}

/// Checks a request record's stage breakdown against its interval: `obj`
/// must carry numeric `start_ns`/`end_ns` and a `stages` array of
/// `{stage, queue_ns, service_ns}` objects whose queue + service times
/// sum exactly to `end_ns - start_ns`. (Sums stay far below 2⁵³, so the
/// f64 arithmetic is exact.)
fn check_stage_sum(obj: &Json) -> Result<(), String> {
    let num = |field: &str| {
        obj.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric {field:?}"))
    };
    let (start, end) = (num("start_ns")?, num("end_ns")?);
    let stages = obj
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or("\"stages\" is not an array")?;
    let mut total = 0.0;
    for (i, st) in stages.iter().enumerate() {
        st.get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("stage {i}: missing \"stage\" name"))?;
        for field in ["queue_ns", "service_ns"] {
            let v = st
                .get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("stage {i}: missing numeric {field:?}"))?;
            if v < 0.0 {
                return Err(format!("stage {i}: negative {field:?}"));
            }
            total += v;
        }
    }
    if total != end - start {
        return Err(format!(
            "stage sum {total} != span duration {}",
            end - start
        ));
    }
    Ok(())
}

/// Validates a line-delimited event stream: every line parses as JSON,
/// carries `ts`/`req`/`kind`, names a known kind, and has that kind's
/// required fields; `request` records additionally reconcile their stage
/// breakdown against the span duration. Returns the number of validated
/// events.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut count = 0;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        for field in ["ts", "req"] {
            doc.get(field)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("line {}: missing numeric \"{field}\"", lineno + 1))?;
        }
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing \"kind\"", lineno + 1))?;
        if !KNOWN_KINDS.contains(&kind) {
            return Err(format!("line {}: unknown kind {kind:?}", lineno + 1));
        }
        for field in required_fields(kind) {
            if doc.get(field).is_none() {
                return Err(format!(
                    "line {}: kind {kind:?} missing field {field:?}",
                    lineno + 1
                ));
            }
        }
        if kind == "request" {
            check_stage_sum(&doc).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        count += 1;
    }
    Ok(count)
}

/// Validates a Chrome trace-event file: parses as a JSON object with a
/// `traceEvents` array whose entries each carry `ph`/`pid`, a `ts` for
/// timed phases, and a `dur` for complete ("X") slices; request slices
/// (args carrying a `stages` array) additionally reconcile their stage
/// breakdown against the span duration. Returns the number of trace
/// events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    for (idx, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing \"ph\""))?;
        ev.get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {idx}: missing \"pid\""))?;
        if ph != "M" {
            ev.get("ts")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {idx}: missing \"ts\""))?;
        }
        if ph == "X" {
            ev.get("dur")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {idx}: missing \"dur\""))?;
        }
        if !matches!(ph, "B" | "E" | "X" | "i" | "C" | "M") {
            return Err(format!("event {idx}: unexpected phase {ph:?}"));
        }
        if let Some(args) = ev.get("args") {
            if args.get("stages").is_some() {
                check_stage_sum(args).map_err(|e| format!("event {idx}: {e}"))?;
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TraceConfig};

    fn sample_events() -> Vec<Event> {
        let r = Recorder::new();
        r.enable(TraceConfig::default());
        r.set_now(1_500);
        let s = r.begin_span("read", "ncache", 4096);
        r.emit(EventKind::CacheAccess { tier: "fs", hit: false });
        r.emit(EventKind::Copy { category: "payload", bytes: 4096 });
        r.emit(EventKind::Substitution { substituted: 2, missing: 0 });
        r.end_span(s);
        r.emit(EventKind::Request {
            op: "read",
            path: "disk",
            start_ns: 1_500,
            end_ns: 9_000,
            stages: vec![
                crate::StageNs { stage: "app-cpu", queue_ns: 500, service_ns: 2_000 },
                crate::StageNs { stage: "disk", queue_ns: 0, service_ns: 5_000 },
            ],
        });
        r.emit(EventKind::ResourceBusy {
            resource: "app-cpu",
            slot: 0,
            start_ns: 2_000,
            end_ns: 3_000,
        });
        r.emit(EventKind::Gauge { name: "throughput_mbs", value: 12.5 });
        r.emit(EventKind::Writeback { blocks: 3 });
        r.emit(EventKind::Eviction { tier: "fs", class: "data", dirty: false });
        r.emit(EventKind::CacheInsert { tier: "ncache-lbn", dirty: true });
        r.emit(EventKind::Remap);
        r.events()
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let text = export_jsonl(&sample_events());
        let n = validate_jsonl(&text).unwrap();
        assert_eq!(n, 12);
        assert!(text.contains("\"kind\":\"substitution\",\"substituted\":2,\"missing\":0"));
        assert!(text.contains("\"kind\":\"copy\",\"category\":\"payload\",\"bytes\":4096"));
    }

    #[test]
    fn chrome_trace_round_trips_through_validator() {
        let text = export_chrome_trace(&sample_events());
        let n = validate_chrome_trace(&text).unwrap();
        // 12 events + 3 process_name + 1 thread_name metadata records.
        assert_eq!(n, 16);
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"ph\":\"E\""));
        assert!(text.contains("\"ts\":1.500"));
        assert!(text.contains("\"name\":\"app-cpu#0\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_events();
        let b = sample_events();
        assert_eq!(export_jsonl(&a), export_jsonl(&b));
        assert_eq!(export_chrome_trace(&a), export_chrome_trace(&b));
    }

    #[test]
    fn validators_reject_malformed_input() {
        assert!(validate_jsonl("{\"ts\":1}\n").is_err());
        assert!(validate_jsonl("{\"ts\":1,\"req\":0,\"kind\":\"bogus\"}\n").is_err());
        assert!(validate_jsonl("{\"ts\":1,\"req\":0,\"kind\":\"copy\"}\n").is_err());
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"B\"}]}").is_err());
        assert_eq!(validate_jsonl("\n\n").unwrap(), 0);
    }

    #[test]
    fn validators_enforce_stage_sum_reconciliation() {
        let line = |stages: &str| {
            format!(
                "{{\"ts\":0,\"req\":1,\"kind\":\"request\",\"op\":\"read\",\
                 \"path\":\"hit\",\"start_ns\":100,\"end_ns\":400,\"stages\":{stages}}}\n"
            )
        };
        // Exact reconciliation passes.
        let good = line("[{\"stage\":\"app-cpu\",\"queue_ns\":100,\"service_ns\":200}]");
        assert_eq!(validate_jsonl(&good).unwrap(), 1);
        // Off-by-one stage sums fail.
        let short = line("[{\"stage\":\"app-cpu\",\"queue_ns\":100,\"service_ns\":199}]");
        let err = validate_jsonl(&short).unwrap_err();
        assert!(err.contains("stage sum"), "{err}");
        // Negative stage times fail.
        let neg = line("[{\"stage\":\"app-cpu\",\"queue_ns\":-100,\"service_ns\":400}]");
        assert!(validate_jsonl(&neg).unwrap_err().contains("negative"));
        // Malformed stage entries fail.
        let nameless = line("[{\"queue_ns\":100,\"service_ns\":200}]");
        assert!(validate_jsonl(&nameless).is_err());
        // The Chrome validator checks the same invariant on args.
        let trace = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":100,\"ts\":0.100,\
             \"dur\":0.300,\"name\":\"read\",\"args\":{\"start_ns\":100,\"end_ns\":400,\
             \"stages\":[{\"stage\":\"disk\",\"queue_ns\":0,\"service_ns\":299}]}}]}";
        assert!(validate_chrome_trace(trace).unwrap_err().contains("stage sum"));
    }

    #[test]
    fn ts_formatting_is_fixed_point() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1_500), "1.500");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn resource_lanes_sorted_not_first_seen() {
        let mk = |name: &'static str| EventKind::ResourceBusy {
            resource: name,
            slot: 0,
            start_ns: 0,
            end_ns: 1,
        };
        let events = vec![
            Event { ts_ns: 0, req: 0, lane: 0, kind: mk("zeta") },
            Event { ts_ns: 0, req: 0, lane: 0, kind: mk("alpha") },
        ];
        let text = export_chrome_trace(&events);
        // alpha sorts first → lane 1 even though zeta appeared first.
        assert!(text.contains("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"alpha#0\"}"));
        assert!(text.contains("\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"zeta#0\"}"));
    }
}
