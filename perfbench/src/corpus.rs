//! Seeded request corpora.
//!
//! A corpus is a list of localization requests, each one (faulty program,
//! failing input) pair with its hand-known ground truth: the catalogued
//! faulty line of a Siemens version, or the line a generated mutation
//! changed. Nothing here asks the pipeline under test; failing inputs come
//! from the concrete interpreter (`bmc::run_program`) alone.
//!
//! Every program is shipped as source text that keeps the catalogue's line
//! numbers (checked on generation): the pretty-printed program
//! (`minic::pretty_program`), or the patched text of a patch fault. The
//! same text serves the in-process path and the service's wire jobs.

use bmc::{run_program, InterpConfig};
use minic::{
    apply_mutation, check_program, constant_sites, operator_sites, parse_program, pretty_program,
    BinOp, Line, Mutation, Program,
};
use prng::SplitMix64;
use service::{Job, JobOptions, JobSpec};
use siemens::{FaultSpec, FaultyVersion};

/// TCAS test-vector pool size (the failing inputs are drawn from it).
const TCAS_POOL: usize = 300;
/// Failing inputs localized per catalogued TCAS version in `tcas-cold`.
const TCAS_INPUTS_PER_VERSION: usize = 3;
/// Seeded TCAS mutants in `tcas-cold`.
const TCAS_COLD_MUTANTS: usize = 36;
/// Mutants in the `service-mix` hot set (on top of the catalogued versions).
const SERVICE_HOT_MUTANTS: usize = 6;
/// Failing inputs per hot program in `service-mix`.
const SERVICE_INPUTS_PER_PROGRAM: usize = 4;

/// One localization request with its ground truth.
#[derive(Debug)]
pub struct Item {
    /// Catalogued version name, or the applied mutation.
    pub label: String,
    /// The wire job: source text, entry, `ReturnEquals(golden)`, exactly
    /// one failing input, encoding and solver options.
    pub job: Job,
    /// `job.program` parsed back.
    pub program: Program,
    /// Lines a correct localization should blame (any one of them counts).
    pub fault_lines: Vec<Line>,
    /// Golden output for the failing input.
    pub golden: i64,
    /// Interpreter settings for re-checking that the input fails.
    pub interp: InterpConfig,
}

impl Item {
    /// The failing input.
    pub fn input(&self) -> &[i64] {
        &self.job.inputs[0]
    }

    /// `true` when the concrete interpreter confirms that the program
    /// deviates from the golden output on the input (wrong result, assertion
    /// or bounds violation; a step-limit stop does not count).
    pub fn input_fails(&self) -> bool {
        let outcome = run_program(
            &self.program,
            &self.job.entry,
            self.input(),
            &[],
            self.interp,
        );
        deviates(&outcome, self.golden)
    }

    fn describe(&self, out: &mut String) {
        use std::fmt::Write;
        let o = &self.job.options;
        let _ = writeln!(
            out,
            "## {} input={:?} golden={} fault_lines={:?} width={} unwind={} inline={} sets={} trusted={:?}",
            self.label,
            self.input(),
            self.golden,
            self.fault_lines.iter().map(|l| l.0).collect::<Vec<_>>(),
            o.width,
            o.unwind,
            o.max_inline_depth,
            o.max_suspect_sets,
            o.trusted_lines,
        );
        out.push_str(&self.job.program);
    }
}

/// A generated corpus.
#[derive(Debug)]
pub struct Corpus {
    /// The requests, in generation order.
    pub items: Vec<Item>,
}

impl Corpus {
    /// A canonical text rendering of everything the corpus holds; two
    /// corpora are equal exactly when their renderings are.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for item in &self.items {
            item.describe(&mut out);
        }
        out
    }
}

fn deviates(outcome: &bmc::ExecOutcome, golden: i64) -> bool {
    (outcome.is_ok() && outcome.result != Some(golden)) || outcome.is_failure()
}

/// A correct program with its input pool, golden outputs and job options.
struct Subject {
    base: Program,
    entry: &'static str,
    pool: Vec<Vec<i64>>,
    golden: Vec<Option<i64>>,
    interp: InterpConfig,
    options: JobOptions,
    trusted: Vec<Line>,
}

impl Subject {
    /// TCAS at the Table 1 settings, with a seeded test-vector pool.
    fn tcas(seed: u64) -> Subject {
        let base = siemens::tcas_program();
        let entry = siemens::TCAS_ENTRY;
        let pool = siemens::tcas_test_vectors(TCAS_POOL, seed);
        let interp = siemens::tcas_interp_config();
        let golden = pool
            .iter()
            .map(|input| {
                let outcome = run_program(&base, entry, input, &[], interp);
                if outcome.is_ok() {
                    outcome.result
                } else {
                    None
                }
            })
            .collect();
        let options = JobOptions {
            width: 16,
            unwind: 6,
            max_inline_depth: 8,
            max_suspect_sets: 24,
            trusted_lines: siemens::tcas_trusted_lines().iter().map(|l| l.0).collect(),
            ..JobOptions::default()
        };
        Subject {
            base,
            entry,
            pool,
            golden,
            interp,
            options,
            trusted: siemens::tcas_trusted_lines(),
        }
    }

    /// Pool indices on which `program` deviates from the golden output.
    fn failing(&self, program: &Program) -> Vec<usize> {
        (0..self.pool.len())
            .filter(|&i| {
                let Some(golden) = self.golden[i] else {
                    return false;
                };
                let outcome = run_program(program, self.entry, &self.pool[i], &[], self.interp);
                deviates(&outcome, golden)
            })
            .collect()
    }

    /// Items for `program` on up to `count` seeded picks of its failing
    /// inputs (none when it has no failing input).
    fn items(
        &self,
        rng: &mut SplitMix64,
        label: String,
        source: String,
        fault_lines: Vec<Line>,
        count: usize,
    ) -> Vec<Item> {
        let program = parse_program(&source).expect("corpus sources parse");
        let mut failing = self.failing(&program);
        let mut items = Vec::new();
        while items.len() < count && !failing.is_empty() {
            let idx = failing.swap_remove(rng.gen_range(0..failing.len()));
            let golden = self.golden[idx].expect("failing inputs have a golden output");
            let mut job = Job::new(
                source.clone(),
                self.entry,
                JobSpec::ReturnEquals(golden),
                vec![self.pool[idx].clone()],
            );
            job.options = self.options.clone();
            items.push(Item {
                label: label.clone(),
                job,
                program: program.clone(),
                fault_lines: fault_lines.clone(),
                golden,
                interp: self.interp,
            });
        }
        items
    }

    /// The catalogued faulty versions that fail the pool, `per_version`
    /// failing inputs each.
    fn catalogued(
        &self,
        rng: &mut SplitMix64,
        versions: &[Version],
        per_version: usize,
    ) -> Vec<Item> {
        versions
            .iter()
            .flat_map(|v| {
                self.items(
                    rng,
                    v.name.clone(),
                    v.source.clone(),
                    v.fault_lines.clone(),
                    per_version,
                )
            })
            .collect()
    }

    /// Up to `count` distinct single-mutation mutants that type-check and
    /// fail at least one pool input, each with one failing input. Mutants
    /// equal to a program in `seen` (compared by pretty-printed source) are
    /// skipped, and every kept mutant is added to `seen`.
    fn mutants(
        &self,
        rng: &mut SplitMix64,
        count: usize,
        seen: &mut std::collections::HashSet<String>,
    ) -> Vec<Item> {
        let constants: Vec<_> = constant_sites(&self.base)
            .into_iter()
            .filter(|s| !self.trusted.contains(&s.line))
            .collect();
        let operators: Vec<_> = operator_sites(&self.base)
            .into_iter()
            .filter(|s| !self.trusted.contains(&s.line))
            .filter(|s| replacement_ops(s.op).len() > 1)
            .collect();
        let mut items = Vec::new();
        if constants.is_empty() && operators.is_empty() {
            return items;
        }
        // Bounded so that a program with few viable mutants cannot spin.
        let mut attempts = 0;
        while items.len() < count && attempts < 200 * count.max(1) {
            attempts += 1;
            let mutation = if operators.is_empty() || (!constants.is_empty() && rng.gen_bool(0.5)) {
                let site = constants[rng.gen_range(0..constants.len())];
                let value = match rng.gen_range(0..4) {
                    0 => site.value + 1,
                    1 => site.value - 1,
                    2 => site.value + rng.gen_range(2i64..=100),
                    _ => site.value - rng.gen_range(2i64..=100),
                };
                Mutation::SetConstant {
                    line: site.line,
                    occurrence: site.occurrence,
                    value,
                }
            } else {
                let site = operators[rng.gen_range(0..operators.len())];
                let choices: Vec<BinOp> = replacement_ops(site.op)
                    .iter()
                    .copied()
                    .filter(|&op| op != site.op)
                    .collect();
                Mutation::ReplaceOperator {
                    line: site.line,
                    occurrence: site.occurrence,
                    new_op: choices[rng.gen_range(0..choices.len())],
                }
            };
            let Ok(program) = apply_mutation(&self.base, &mutation) else {
                continue;
            };
            let source = pretty_program(&program);
            if !check_program(&program).is_empty() || !seen.insert(source.clone()) {
                continue;
            }
            items.extend(self.items(rng, mutation.to_string(), source, vec![mutation.line()], 1));
        }
        items
    }
}

/// Operators a mutation may swap `op` for: the members of its class.
fn replacement_ops(op: BinOp) -> &'static [BinOp] {
    use BinOp::*;
    match op {
        Lt | Le | Gt | Ge | Eq | Ne => &[Lt, Le, Gt, Ge, Eq, Ne],
        Add | Sub => &[Add, Sub],
        And | Or => &[And, Or],
        _ => &[],
    }
}

/// A catalogued faulty version: its name, source text and ground truth.
struct Version {
    name: String,
    source: String,
    fault_lines: Vec<Line>,
}

impl Version {
    /// The version's source: the patched text for a patch fault (a patch
    /// may put two statements on one line, which pretty-printing would
    /// split), otherwise the pretty-printed mutated program.
    fn new(version: &FaultyVersion, base_source: &str) -> Version {
        let source = match &version.spec {
            FaultSpec::Patch { from, to } => base_source.replacen(from, to, 1),
            FaultSpec::Mutations(_) => pretty_program(&version.build(base_source)),
        };
        let program = parse_program(&source).expect("catalogued versions parse");
        assert_eq!(
            program.statement_lines(),
            version.build(base_source).statement_lines(),
            "a version's source keeps its line numbers"
        );
        Version {
            name: version.name.to_string(),
            source,
            fault_lines: version.faulty_lines.clone(),
        }
    }
}

fn tcas_versions() -> Vec<Version> {
    siemens::tcas_versions()
        .iter()
        .map(|v| Version::new(v, siemens::TCAS_SOURCE))
        .collect()
}

fn rng_for(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `tcas-cold`: every catalogued TCAS version that fails the seeded pool,
/// with three failing inputs each, plus seeded single-mutation mutants.
pub fn tcas_cold(seed: u64) -> Corpus {
    let subject = Subject::tcas(seed);
    let mut rng = rng_for(seed, 1);
    let mut items = subject.catalogued(&mut rng, &tcas_versions(), TCAS_INPUTS_PER_VERSION);
    let mut seen = Default::default();
    items.extend(subject.mutants(&mut rng, TCAS_COLD_MUTANTS, &mut seen));
    Corpus { items }
}

/// `service-mix`: a hot set of TCAS programs, the catalogued versions plus
/// a few mutants, two failing inputs each.
pub fn service_mix(seed: u64) -> Corpus {
    let subject = Subject::tcas(seed);
    let mut rng = rng_for(seed, 3);
    let versions = tcas_versions();
    let mut seen: std::collections::HashSet<String> =
        versions.iter().map(|v| v.source.clone()).collect();
    let mut items = subject.catalogued(&mut rng, &versions, SERVICE_INPUTS_PER_PROGRAM);
    for mutant in subject.mutants(&mut rng, SERVICE_HOT_MUTANTS, &mut seen) {
        items.extend(subject.items(
            &mut rng,
            mutant.label,
            mutant.job.program,
            mutant.fault_lines,
            SERVICE_INPUTS_PER_PROGRAM,
        ));
    }
    Corpus { items }
}

/// The `edit`-th never-seen variant of a job: its program with one more
/// global declaration appended after the last line. The new declaration
/// changes the program, and so the daemon's cache key, but no line number
/// and no behaviour, so the variant's report equals the job's.
pub fn edited(job: &Job, edit: usize) -> Job {
    let mut job = job.clone();
    if !job.program.ends_with('\n') {
        job.program.push('\n');
    }
    job.program.push_str(&format!("int Edit_{edit};\n"));
    job
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_corpus() {
        assert_eq!(tcas_cold(7).describe(), tcas_cold(7).describe());
        assert_eq!(service_mix(7).describe(), service_mix(7).describe());
    }

    #[test]
    fn another_seed_gives_another_corpus() {
        assert_ne!(tcas_cold(7).describe(), tcas_cold(8).describe());
        assert_ne!(service_mix(7).describe(), service_mix(8).describe());
    }

    #[test]
    fn every_item_fails_in_the_interpreter_and_blames_a_statement_line() {
        for corpus in [tcas_cold(3), service_mix(3)] {
            assert!(!corpus.items.is_empty());
            for item in &corpus.items {
                assert!(item.input_fails(), "{}", item.label);
                let lines = item.program.statement_lines();
                assert!(item.fault_lines.iter().all(|l| lines.contains(l)));
            }
        }
    }

    #[test]
    fn tcas_cold_holds_the_failing_catalogue_and_its_mutants() {
        let corpus = tcas_cold(11);
        let versions = corpus
            .items
            .iter()
            .filter(|i| i.label.starts_with('v'))
            .map(|i| i.label.as_str())
            .collect::<std::collections::BTreeSet<_>>();
        assert!(versions.len() >= 18, "{versions:?}");
        let mutants = corpus.items.iter().filter(|i| !i.label.starts_with('v'));
        assert_eq!(mutants.count(), TCAS_COLD_MUTANTS);
    }

    #[test]
    fn an_edit_changes_the_cache_key_but_not_the_lines_or_the_report() {
        use bugassist::Localizer;
        use service::protocol::{canonicalize, report_to_json};
        let corpus = service_mix(5);
        for item in [&corpus.items[0], corpus.items.last().unwrap()] {
            let job = edited(&item.job, 3);
            let program = parse_program(&job.program).expect("an edit parses");
            assert_eq!(program.statement_lines(), item.program.statement_lines());
            assert_ne!(job.cache_key(&program), item.job.cache_key(&item.program));
            assert_ne!(job.program, edited(&item.job, 4).program);
            let report = |job: &Job, program: &Program| {
                let localizer = Localizer::new(
                    program,
                    &job.entry,
                    &job.bmc_spec(),
                    &job.localizer_config(),
                )
                .expect("the job encodes");
                let report = localizer.localize(&job.inputs[0]).expect("localizes");
                canonicalize(&report_to_json(&report)).to_string()
            };
            assert_eq!(report(&job, &program), report(&item.job, &item.program));
        }
    }
}
