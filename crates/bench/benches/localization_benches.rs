//! Benchmarks for the end-to-end localization pipeline: the motivating
//! example (Table 1's unit of work), the clause-grouping ablation (line-level
//! vs instance-level selectors, E10 in DESIGN.md), TCAS trace-formula
//! construction, and a 4-rank TCAS localization. Run with
//! `cargo bench -p bench --bench localization_benches`.

use bench::micro::BenchGroup;
use bmc::{EncodeConfig, Spec};
use bugassist::{Granularity, Localizer, LocalizerConfig};
use siemens::{tcas_trusted_lines, tcas_versions, TCAS_ENTRY, TCAS_SOURCE};

const MOTIVATING: &str = "int Array[3];\nint testme(int index) {\nif (index != 1) {\nindex = 2;\n} else {\nindex = index + 2;\n}\nint i = index;\nreturn Array[i];\n}";

fn bench_motivating_example() {
    let mut group = BenchGroup::new("localization", 15);
    let program = minic::parse_program(MOTIVATING).unwrap();
    for granularity in [Granularity::Line, Granularity::StatementInstance] {
        let config = LocalizerConfig {
            encode: EncodeConfig {
                width: 8,
                ..EncodeConfig::default()
            },
            granularity,
            ..LocalizerConfig::default()
        };
        let localizer = Localizer::new(&program, "testme", &Spec::Assertions, &config).unwrap();
        group.bench(&format!("motivating_example_{granularity:?}"), || {
            let report = localizer.localize(&[1]).unwrap();
            assert!(!report.suspects.is_empty());
        });
    }
}

fn bench_tcas_pipeline() {
    let mut group = BenchGroup::new("tcas", 10);
    let version = tcas_versions().into_iter().next().expect("v1 exists");
    let faulty = version.build(TCAS_SOURCE);
    let encode = EncodeConfig {
        width: 16,
        unwind: 6,
        max_inline_depth: 8,
        concretize: Vec::new(),
        ..EncodeConfig::default()
    };
    group.bench("encode_tcas_trace_formula", || {
        let trace =
            bmc::encode_program(&faulty, TCAS_ENTRY, &Spec::ReturnEquals(2), &encode).unwrap();
        assert!(trace.stats.clauses > 0);
    });

    // A crafted failing vector for v1 (Climb_Inhibit biases Up_Separation).
    let pool = siemens::tcas_test_vectors(200, 2011);
    let failing = pool
        .iter()
        .find(|input| {
            let golden = siemens::tcas_golden_output(input);
            let outcome = bmc::run_program(
                &faulty,
                TCAS_ENTRY,
                input,
                &[],
                siemens::tcas_interp_config(),
            );
            outcome.result != Some(golden)
        })
        .cloned()
        .expect("v1 has failing vectors in the pool");
    let golden = siemens::tcas_golden_output(&failing);
    let config = LocalizerConfig {
        encode,
        max_suspect_sets: 4,
        trusted_lines: tcas_trusted_lines(),
        ..LocalizerConfig::default()
    };
    let localizer =
        Localizer::new(&faulty, TCAS_ENTRY, &Spec::ReturnEquals(golden), &config).unwrap();
    group.bench("localize_tcas_v1_one_failing_test", || {
        let report = localizer.localize(&failing).unwrap();
        assert!(!report.suspect_lines.is_empty());
    });
}

fn main() {
    bench_motivating_example();
    bench_tcas_pipeline();
}
