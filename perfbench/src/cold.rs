//! `tcas-cold`: the library path, one fresh `Localizer::new` + `warm` +
//! `localize` per request, closed loop.

use crate::corpus::{self, Corpus, Item};
use crate::probe;
use crate::trace::Tracer;
use crate::{Outcome, Settings};
use bmc::Spec;
use bugassist::{LocalizationReport, Localizer, LocalizerConfig};
use prng::SplitMix64;
use service::protocol::{canonicalize, report_to_json};
use std::time::Instant;

/// Corpus generations timed per run: at least this many, and more until
/// [`SETUP_BUDGET_S`] is spent, up to [`SETUP_MAX_REPEATS`]; `setup_s` is
/// their median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 40;
const SETUP_BUDGET_S: f64 = 3.0;

/// One answered (or failed) request.
struct Answer {
    item: usize,
    ms: f64,
    traced: bool,
    result: Result<Reply, String>,
}

struct Reply {
    canonical: String,
    complete: bool,
    found: bool,
}

/// Index of the `seq`-th request: the corpus in a fresh seeded order per
/// pass, so every pass holds each item exactly once.
fn item_at(seq: usize, n: usize, seed: u64) -> usize {
    let pass = (seq / n) as u64;
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::seed_from_u64(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407));
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order[seq % n]
}

fn localize(
    item: &Item,
    spec: &Spec,
    config: &LocalizerConfig,
    tracer: Option<(&mut Tracer, u64)>,
) -> Result<LocalizationReport, String> {
    let entry = item.job.entry.as_str();
    match tracer {
        None => {
            let localizer =
                Localizer::new(&item.program, entry, spec, config).map_err(|e| e.to_string())?;
            localizer.warm();
            localizer.localize(item.input()).map_err(|e| e.to_string())
        }
        Some((t, request)) => {
            let root = t.open("request", request, None);
            let span = t.open("core.new", request, Some(root));
            let localizer = Localizer::new(&item.program, entry, spec, config);
            t.close(span);
            let localizer = localizer.map_err(|e| e.to_string())?;
            let span = t.open("core.prepare", request, Some(root));
            localizer.warm();
            t.close(span);
            let span = t.open("core.localize", request, Some(root));
            let report = localizer.localize(item.input());
            let localize_ms = t.close(span).as_secs_f64() * 1e3;
            t.close(root);
            let report = report.map_err(|e| e.to_string())?;
            probe::record_report_counts(t, &report, localize_ms);
            Ok(report)
        }
    }
}

/// Runs `tcas-cold`: times repeated corpus generations, then drives one
/// closed-loop caller over whole passes of the corpus until
/// `settings.seconds` have passed, then checks every answer.
pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = Outcome::default();
    let mut corpus: Option<Corpus> = None;
    while outcome.setup_s.len() < SETUP_MIN_REPEATS
        || (outcome.setup_s.iter().sum::<f64>() < SETUP_BUDGET_S
            && outcome.setup_s.len() < SETUP_MAX_REPEATS)
    {
        let started = Instant::now();
        let fresh = corpus::tcas_cold(settings.seed);
        outcome.setup_s.push(started.elapsed().as_secs_f64());
        if let Some(previous) = &corpus {
            if previous.describe() != fresh.describe() {
                outcome.problem("corpus generation is not deterministic".to_string());
            }
        }
        corpus = Some(fresh);
    }
    let corpus = corpus.expect("at least one setup");
    let items = &corpus.items;
    let n = items.len();
    let plans: Vec<(Spec, LocalizerConfig)> = items
        .iter()
        .map(|i| (i.job.bmc_spec(), i.job.localizer_config()))
        .collect();
    eprintln!("{}: {} requests per pass", settings.workload, n);

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut answers: Vec<Answer> = Vec::new();
    // The window ends at the first pass boundary after `settings.seconds`,
    // so every run weighs each corpus item equally.
    for seq in 0.. {
        if seq > 0 && seq % n == 0 && origin.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
        let idx = item_at(seq, n, settings.seed);
        let (spec, config) = &plans[idx];
        // In the traced run every other request is traced, so the
        // untraced half measures the tracing overhead.
        let traced = settings.trace && seq % 2 == 1;
        let started = Instant::now();
        let report = localize(
            &items[idx],
            spec,
            config,
            traced.then_some((&mut tracer, seq as u64)),
        );
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let result = report.map(|r| Reply {
            canonical: canonicalize(&report_to_json(&r)).to_string(),
            complete: r.complete,
            found: items[idx].fault_lines.iter().any(|l| r.blames_line(*l)),
        });
        answers.push(Answer {
            item: idx,
            ms,
            traced,
            result,
        });
    }
    outcome.window_s = origin.elapsed().as_secs_f64();
    check(&mut outcome, items, &answers);

    if settings.trace {
        let traced: Vec<f64> = answers.iter().filter(|a| a.traced).map(|a| a.ms).collect();
        let untraced: Vec<f64> = answers.iter().filter(|a| !a.traced).map(|a| a.ms).collect();
        outcome.trace_overhead_ms = crate::stats::median(&traced)
            .zip(crate::stats::median(&untraced))
            .map(|(t, u)| t - u);
        probe::prepare_layers(&mut tracer, items);
        outcome.tracer = Some(tracer);
    }
    outcome
}

/// Output checks: every answer complete, every input failing in the
/// interpreter, every repeat byte-identical to the item's first answer.
/// `fault_found_rate` is judged on the first answer of every item, which
/// the first full pass guarantees.
fn check(outcome: &mut Outcome, items: &[Item], answers: &[Answer]) {
    let mut first: Vec<Option<&Reply>> = vec![None; items.len()];
    let mut input_checked = vec![false; items.len()];
    for answer in answers {
        outcome.attempted += 1;
        let item = &items[answer.item];
        let reply = match &answer.result {
            Ok(reply) => reply,
            Err(e) => {
                outcome.fail(format!("{}: error: {e}", item.label));
                continue;
            }
        };
        if !reply.complete {
            outcome.fail(format!("{}: incomplete report", item.label));
            continue;
        }
        if !input_checked[answer.item] {
            input_checked[answer.item] = true;
            if !item.input_fails() {
                outcome.fail(format!("{}: input does not fail", item.label));
                continue;
            }
        }
        match first[answer.item] {
            None => {
                first[answer.item] = Some(reply);
                outcome.judged += 1;
                outcome.found += usize::from(reply.found);
            }
            Some(earlier) if earlier.canonical != reply.canonical => {
                outcome.fail(format!("{}: answer changed on repeat", item.label));
                continue;
            }
            Some(_) => {}
        }
        outcome.latencies_ms.push(answer.ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_visits_each_item_once() {
        for pass in 0..3 {
            let mut seen: Vec<usize> = (0..7).map(|i| item_at(pass * 7 + i, 7, 42)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..7).collect::<Vec<_>>());
        }
        assert_eq!(item_at(3, 7, 42), item_at(3, 7, 42));
    }
}
