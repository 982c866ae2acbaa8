//! Metric names, units and the result line.

use service::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("report_ms_p50", "ms"),
    ("report_ms_p90", "ms"),
    ("report_ms_geomean", "ms"),
    ("reports_per_s", "1/s"),
    ("fault_found_rate", "share"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by the traced run of every workload. A layer
/// a workload does not exercise (the service and store on `tcas-cold`)
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("minic.parse_ms", "ms"),
    ("minic.typecheck_ms", "ms"),
    ("analysis.lint_ms", "ms"),
    ("analysis.relevance_ms", "ms"),
    ("analysis.lines_pruned", "count"),
    ("bmc.word_trace_ms", "ms"),
    ("bmc.word_nodes", "count"),
    ("bitblast.lower_ms", "ms"),
    ("bitblast.clauses", "count"),
    ("core.new_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("sat.hard_clauses_pre_simplify", "count"),
    ("sat.hard_clauses", "count"),
    ("sat.vars_eliminated", "count"),
    ("core.localize_ms", "ms"),
    ("maxsat.calls", "count"),
    ("core.localize_ms_per_rank", "ms"),
    ("maxsat.arena_bytes", "bytes"),
    ("service.latency_ms.memory", "ms"),
    ("service.latency_ms.store", "ms"),
    ("service.latency_ms.built", "ms"),
    ("service.tier_share.memory", "share"),
    ("service.tier_share.store", "share"),
    ("service.tier_share.built", "share"),
    ("service.overhead_ms", "ms"),
    ("service.json_ms", "ms"),
    ("service.queue.shed", "count"),
    ("service.queue.expired", "count"),
    ("service.avg_exec_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("service.persist_decode_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.write_errors", "count"),
    ("store.corrupt_records", "count"),
    ("trace.overhead_ms", "ms"),
];

/// The last line of the benchmark's output: `correct`, `attempted`,
/// `failed` and every metric of `names` (missing values read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            (
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::str(*unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    /// The benchmark's manifest one directory up names exactly these
    /// metrics with these units.
    #[test]
    fn metric_lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = manifest.get(key).and_then(Json::as_arr).expect(key);
            let named: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Json::as_str).unwrap(),
                        e.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(named, list.to_vec(), "{key}");
        }
    }

    #[test]
    fn result_line_holds_every_metric_with_its_unit() {
        let values = BTreeMap::from([("setup_s", 0.25)]);
        let line = result_line(true, 3, 0, END_TO_END, &values);
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(3));
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
        let setup = metrics.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(Json::as_f64), Some(0.25));
    }
}
