//! The repository benchmark: two closed-loop workloads over the BugAssist
//! pipeline, end-to-end metrics in the untraced run and per-layer metrics
//! in the traced run. See `README.md` next to this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcas-cold --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits 1 when an output
//! check failed and 2 on bad arguments.

mod cold;
mod corpus;
mod metrics;
mod probe;
mod service_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// The workloads, in the manifest's (`BENCHMARK.json`) order.
pub const WORKLOADS: &[&str] = &["tcas-cold", "service-mix"];

/// Command-line settings of one run.
#[derive(Debug)]
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let mut settings = Settings {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => settings.workload = value.clone(),
            "--seed" => settings.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => settings.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = settings.workload.as_str();
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {workload:?}"
        ));
    }
    if settings.seconds.is_nan() || settings.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(settings)
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests issued in the measuring window.
    pub attempted: u64,
    /// Errors, incomplete reports and failed output checks.
    pub failed: u64,
    /// Check failures that are not tied to one request (set-up, corpus).
    pub problems: Vec<String>,
    /// Latency of every correctly answered request.
    pub latencies_ms: Vec<f64>,
    /// Length of the measuring window.
    pub window_s: f64,
    /// Items judged for `fault_found_rate`, and how many blamed the fault.
    pub judged: usize,
    /// See [`Outcome::judged`].
    pub found: usize,
    /// Every timed set-up.
    pub setup_s: Vec<f64>,
    /// Traced run: spans and counts.
    pub tracer: Option<Tracer>,
    /// Traced run: traced minus untraced median latency.
    pub trace_overhead_ms: Option<f64>,
    /// Traced run: per-layer values measured directly (service, store).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts a failed request and reports why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("check failed: {why}");
        }
    }

    /// Records a check failure outside any request.
    pub fn problem(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.problems.push(why);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let lat = &self.latencies_ms;
        let mut m = BTreeMap::new();
        let mut put = |name, value: Option<f64>| {
            if let Some(v) = value {
                m.insert(name, v);
            }
        };
        put("report_ms_p50", stats::median(lat));
        put("report_ms_p90", stats::quantile(lat, 0.9));
        put("report_ms_geomean", stats::geomean(lat));
        put("reports_per_s", Some(lat.len() as f64 / self.window_s));
        put(
            "fault_found_rate",
            (self.judged > 0).then(|| self.found as f64 / self.judged as f64),
        );
        put(
            "ok_share",
            (self.attempted > 0).then(|| 1.0 - self.failed as f64 / self.attempted as f64),
        );
        put("peak_rss_mb", stats::peak_rss_mb());
        put("setup_s", stats::median(&self.setup_s));
        m
    }

    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut m = self.layers.clone();
        if let Some(t) = &self.tracer {
            let spans = t.self_ms_by_name();
            for (name, _) in metrics::PER_LAYER {
                let span = name.strip_suffix("_ms").unwrap_or(name);
                let value = match spans.get(span) {
                    Some(samples) => stats::median(samples),
                    None if name.contains("_ms") => stats::median(t.counts(name)),
                    None => stats::mean(t.counts(name)),
                };
                if let Some(v) = value {
                    m.entry(name).or_insert(v);
                }
            }
        }
        if let Some(overhead) = self.trace_overhead_ms {
            m.insert("trace.overhead_ms", overhead);
        }
        m
    }
}

/// Scratch directory of this run inside the working directory (store
/// directories, span dumps). Ignored by git.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".bench_work")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match settings.workload.as_str() {
        "tcas-cold" => cold::run(&settings),
        _ => service_mix::run(&settings),
    };
    let correct = outcome.correct();
    let (names, values) = if settings.trace {
        (metrics::PER_LAYER, outcome.per_layer())
    } else {
        (metrics::END_TO_END, outcome.end_to_end())
    };
    if let Some(t) = &outcome.tracer {
        let path = work_dir().join(format!(
            "spans-{}-seed{}.jsonl",
            settings.workload, settings.seed
        ));
        let written =
            std::fs::create_dir_all(work_dir()).and_then(|()| std::fs::write(&path, t.to_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for (name, unit) in names {
        match values.get(name) {
            Some(v) => eprintln!("{:<32} {v:>14.4} {unit}", name),
            None => eprintln!("{:<32} {:>14} {unit}", name, "-"),
        }
    }
    eprintln!(
        "requests: {} attempted, {} failed, window {:.2} s",
        outcome.attempted, outcome.failed, outcome.window_s
    );
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted, outcome.failed, names, &values)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let s = parse_args(&args(&[
            "--workload",
            "service-mix",
            "--seed",
            "9",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(s.workload, "service-mix");
        assert_eq!(s.seed, 9);
        assert_eq!(s.seconds, 30.0);
        assert!(s.trace);
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "tcas-cold", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "tcas-cold", "--seed"])).is_err());
    }

    #[test]
    fn workload_names_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let manifest = service::Json::parse(&text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = manifest
            .get("workloads")
            .and_then(service::Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(service::Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
