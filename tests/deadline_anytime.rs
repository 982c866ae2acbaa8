//! The anytime contract of budgeted localization, pinned on the paper's
//! TCAS workload: a wall-clock deadline that expires mid-enumeration must
//! come back with a report — never an error, never a hang — whose ranks
//! are a proven prefix of the exact enumeration, except possibly a final
//! *anytime* rank whose cost upper-bounds that rank's true optimum. And
//! the expiry must leave no residue: re-running unbudgeted on the same
//! (shared, prepared) localizer reproduces the exact report.

use bmc::Spec;
use bugassist::{Budget, Localizer, LocalizerConfig};
use std::time::{Duration, Instant};

/// TCAS v1 plus one failing vector and its golden output.
fn tcas_failing_case() -> (minic::Program, i64, Vec<i64>) {
    let version = siemens::tcas_versions()
        .into_iter()
        .find(|v| v.name == "v1")
        .expect("v1 exists");
    let faulty = version.build(siemens::TCAS_SOURCE);
    let pool = siemens::tcas_test_vectors(120, 2011);
    let interp = siemens::tcas_interp_config();
    let failing = pool
        .iter()
        .find(|input| {
            let golden = siemens::tcas_golden_output(input);
            let outcome = bmc::run_program(&faulty, siemens::TCAS_ENTRY, input, &[], interp);
            outcome.result != Some(golden) || !outcome.is_ok()
        })
        .expect("v1 has a failing vector");
    (
        faulty,
        siemens::tcas_golden_output(failing),
        failing.clone(),
    )
}

fn config() -> LocalizerConfig {
    LocalizerConfig {
        encode: bmc::EncodeConfig {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            ..bmc::EncodeConfig::default()
        },
        max_suspect_sets: 4,
        trusted_lines: siemens::tcas_trusted_lines(),
        ..LocalizerConfig::default()
    }
}

#[test]
fn tcas_mid_solve_deadline_yields_anytime_upper_bound_or_exact() {
    let (faulty, golden, input) = tcas_failing_case();
    let localizer = Localizer::new(
        &faulty,
        siemens::TCAS_ENTRY,
        &Spec::ReturnEquals(golden),
        &config(),
    )
    .expect("TCAS encodes");

    // Prepare the formula up front so both runs below are solve-only and
    // the deadline lands inside the enumeration, not the bit-blast.
    localizer.warm();
    let started = Instant::now();
    let exact = localizer.localize(&input).expect("exact run");
    let exact_wall = started.elapsed();
    assert!(exact.complete, "unbudgeted runs are always complete");
    assert!(!exact.suspects.is_empty(), "TCAS v1 has suspects");

    // A deadline at a fifth of the exact solve time: almost certainly cuts
    // the enumeration mid-flight. (If this machine races through anyway,
    // the contract demands the exact report — both arms are pinned.)
    let deadline = (exact_wall / 5).max(Duration::from_millis(1));
    let budgeted = localizer
        .localize_budgeted(&input, Budget::with_timeout(deadline))
        .expect("budget expiry is never an error");

    if budgeted.complete {
        assert_eq!(budgeted.suspects, exact.suspects);
        assert_eq!(budgeted.suspect_lines, exact.suspect_lines);
    } else {
        // A cut run reports a prefix: never more ranks than the exact run.
        assert!(
            budgeted.suspects.len() <= exact.suspects.len(),
            "anytime run found {} ranks, exact run {}",
            budgeted.suspects.len(),
            exact.suspects.len()
        );
        // Every rank but the last was returned as a *proven* optimum, and
        // proven ranks of the deterministic enumeration are canonical:
        // they equal the exact run's ranks exactly.
        if budgeted.suspects.len() > 1 {
            let proven = budgeted.suspects.len() - 1;
            assert_eq!(
                budgeted.suspects[..proven],
                exact.suspects[..proven],
                "completed ranks must be prefix-identical to the exact run"
            );
        }
        // The final rank may be an anytime incumbent: its cost
        // upper-bounds the true optimum of that rank (equality when the
        // incumbent happened to be optimal).
        for (got, want) in budgeted.suspects.iter().zip(&exact.suspects) {
            assert!(
                got.cost >= want.cost,
                "rank {} anytime cost {} undercuts the true optimum {}",
                got.rank,
                got.cost,
                want.cost
            );
        }
    }

    // No residue: the cut enumeration shares its prepared formula with
    // every later call on this localizer, and an unbudgeted re-run must
    // reproduce the exact report in full.
    let again = localizer
        .localize_budgeted(&input, Budget::UNLIMITED)
        .expect("re-run");
    assert!(again.complete);
    assert_eq!(again.suspects, exact.suspects);
    assert_eq!(again.suspect_lines, exact.suspect_lines);
}
