//! Standalone layer probes of the traced run.
//!
//! These call each pipeline crate's public entry points on a sample of the
//! corpus, each call in its own root span — outside every request's timed
//! span — so the per-layer numbers never inflate a request's latency.

use crate::corpus::Item;
use crate::trace::Tracer;
use bugassist::LocalizationReport;

/// Items probed per run: an evenly spaced sample of the corpus.
const PROBE_ITEMS: usize = 12;

/// Request ids of probe spans start here, clear of the load phase's ids.
pub const PROBE_REQUEST_BASE: u64 = 1 << 40;

/// Records the counts a report carries, plus the per-rank localize time.
pub fn record_report_counts(t: &mut Tracer, report: &LocalizationReport, localize_ms: f64) {
    let s = &report.stats;
    t.count("analysis.lines_pruned", s.lines_pruned as f64);
    t.count(
        "sat.hard_clauses_pre_simplify",
        s.hard_clauses_pre_simplify as f64,
    );
    t.count("sat.hard_clauses", s.hard_clauses as f64);
    t.count("sat.vars_eliminated", s.vars_eliminated as f64);
    t.count("maxsat.calls", s.maxsat_calls as f64);
    t.count("maxsat.arena_bytes", s.arena_bytes as f64);
    if s.maxsat_calls > 0 {
        t.count(
            "core.localize_ms_per_rank",
            localize_ms / s.maxsat_calls as f64,
        );
    }
}

/// An evenly spaced sample of at most [`PROBE_ITEMS`] items.
pub fn sample(items: &[Item]) -> impl Iterator<Item = (usize, &Item)> {
    let step = items.len().div_ceil(PROBE_ITEMS).max(1);
    items.iter().enumerate().step_by(step)
}

/// Times the front half of the pipeline on a sample of `items`: parse,
/// type check, lint, static relevance, word-level trace and the full
/// symbolic encoding (whose excess over the word trace is the bit-blast
/// lowering).
pub fn prepare_layers(t: &mut Tracer, items: &[Item]) {
    for (idx, item) in sample(items) {
        let request = PROBE_REQUEST_BASE + idx as u64;
        let entry = item.job.entry.as_str();
        let spec = item.job.bmc_spec();
        let config = item.job.localizer_config();
        let parsed = t.time("minic.parse", request, || {
            minic::parse_program(&item.job.program)
        });
        let program = parsed.expect("corpus programs parse");
        let errors = t.time("minic.typecheck", request, || {
            minic::check_program(&program)
        });
        assert!(errors.is_empty(), "corpus programs type-check");
        t.time("analysis.lint", request, || {
            analysis::lint_program(&program, config.encode.width)
        });
        let criterion = match spec {
            bmc::Spec::Assertions => analysis::Criterion::Assertions,
            bmc::Spec::ReturnEquals(_) => analysis::Criterion::ReturnValue,
        };
        t.time("analysis.relevance", request, || {
            analysis::prunable_lines(&program, entry, criterion)
        });
        let words = t.open("bmc.word_trace", request, None);
        let word_trace = bmc::word_trace(&program, entry, &spec, &config.encode);
        let word_ms = t.close(words).as_secs_f64() * 1e3;
        word_trace.expect("corpus programs encode");
        let encode = t.open("bmc.encode_program", request, None);
        let trace = bmc::encode_program(&program, entry, &spec, &config.encode);
        let encode_ms = t.close(encode).as_secs_f64() * 1e3;
        let trace = trace.expect("corpus programs encode");
        t.count("bitblast.lower_ms", encode_ms - word_ms);
        t.count("bmc.word_nodes", trace.stats.word_nodes as f64);
        t.count("bitblast.clauses", trace.stats.clauses as f64);
    }
}
