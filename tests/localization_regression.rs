//! TCAS localization equality regressions guarding the SAT-core rewrite:
//! the arena-backed solver with learnt-clause reduction must produce the
//! same localizations, the same batch ranking, and the same optimum
//! across strategies as the straight-line paths.

use bmc::Spec;
use bugassist::{Localizer, LocalizerConfig, RankedReport};
use maxsat::Strategy;
use std::collections::BTreeMap;

fn tcas_failing_batch() -> (minic::Program, i64, Vec<Vec<i64>>) {
    let version = siemens::tcas_versions()
        .into_iter()
        .find(|v| v.name == "v1")
        .expect("v1 exists");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let pool = siemens::tcas_test_vectors(120, 2011);
    let interp = siemens::tcas_interp_config();
    // Failing vectors grouped by golden output; a batch needs a shared spec.
    let mut by_golden: BTreeMap<i64, Vec<Vec<i64>>> = BTreeMap::new();
    for input in &pool {
        let golden = siemens::tcas_golden_output(input);
        let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, input, &[], interp);
        if outcome.result != Some(golden) || !outcome.is_ok() {
            by_golden.entry(golden).or_default().push(input.clone());
        }
    }
    let (&golden, failing) = by_golden
        .iter()
        .max_by_key(|(_, v)| v.len())
        .expect("v1 has failing vectors");
    assert!(failing.len() >= 3, "need >= 3 failing tests");
    (faulty, golden, failing.iter().take(3).cloned().collect())
}

fn config(strategy: Strategy) -> LocalizerConfig {
    LocalizerConfig {
        encode: bmc::EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            concretize: Vec::new(),
            ..bmc::EncodeConfig::default()
        },
        strategy,
        max_suspect_sets: 2,
        trusted_lines: siemens::tcas_trusted_lines(),
        ..LocalizerConfig::default()
    }
}

/// `localize_batch` must rank exactly like sequentially localizing each test
/// and merging the reports — line for line, count for count.
#[test]
fn tcas_batch_ranking_equals_sequential_merge() {
    let (faulty, golden, batch) = tcas_failing_batch();
    let spec = Spec::ReturnEquals(golden);
    let cfg = config(Strategy::FuMalik);
    let localizer =
        Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &cfg).expect("TCAS encodes");

    let batched = localizer.localize_batch(&batch).expect("batch succeeds");
    let sequential: Vec<_> = batch
        .iter()
        .map(|input| localizer.localize(input).expect("localization succeeds"))
        .collect();
    let merged = RankedReport::from_reports(sequential);

    assert_eq!(batched.per_test.len(), merged.per_test.len());
    for (b, s) in batched.per_test.iter().zip(&merged.per_test) {
        assert_eq!(b.suspect_lines, s.suspect_lines);
    }
    assert_eq!(batched.max_count, merged.max_count);
    assert_eq!(batched.ranking.len(), merged.ranking.len());
    for (b, s) in batched.ranking.iter().zip(&merged.ranking) {
        assert_eq!((b.line, b.count), (s.line, s.count));
    }
}

/// Every strategy — core-guided and model-improving — must agree on the
/// optimum CoMSS cost of the same failing test.
#[test]
fn tcas_all_strategies_agree_on_optimal_cost() {
    let (faulty, golden, batch) = tcas_failing_batch();
    let spec = Spec::ReturnEquals(golden);
    let probe = &batch[0];

    let mut costs = Vec::new();
    for (label, strategy) in [
        ("fu_malik", Strategy::FuMalik),
        ("linear_sat_unsat", Strategy::LinearSatUnsat),
    ] {
        let cfg = config(strategy);
        let localizer =
            Localizer::new(&faulty, siemens::TCAS_ENTRY, &spec, &cfg).expect("TCAS encodes");
        let report = localizer.localize(probe).expect("localization succeeds");
        assert!(
            !report.suspect_lines.is_empty(),
            "{label}: no suspects reported"
        );
        // Trusted input-copy lines are never blamed, whatever the strategy.
        for line in siemens::tcas_trusted_lines() {
            assert!(!report.blames_line(line), "{label} blamed trusted {line}");
        }
        costs.push((label, report.suspects[0].cost));
    }
    let (first_label, first_cost) = costs[0];
    for &(label, cost) in &costs[1..] {
        assert_eq!(
            cost, first_cost,
            "{label} found a different optimum than {first_label}"
        );
    }
}
