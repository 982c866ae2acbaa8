//! `service-mix`: an in-process daemon with a store directory, driven by
//! two closed-loop client connections with a seeded, skewed stream of TCAS
//! jobs whose hot set is larger than the memory cache.

use crate::corpus::{self, Corpus, Item};
use crate::probe;
use crate::stats;
use crate::trace::Tracer;
use crate::{work_dir, Outcome, Settings};
use bugassist::Localizer;
use prng::SplitMix64;
use service::protocol::{canonicalize, report_to_json};
use service::{persist, Client, Json, PreparedEntry, Server, ServiceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Client connections (one closed-loop caller each).
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: usize = 2;

// The request mix. No trace of real localization traffic exists, so the
// constants below are assumptions, chosen for the situation the
// workload models: a shared daemon whose cache is smaller than the set of
// programs its users keep asking about, and which keeps seeing new code.

/// Memory-cache capacity, in prepared entries: all but a few of the 24–26
/// hot programs, so evicted programs come back from the store. The daemon's
/// default of 64 entries would hold the whole TCAS hot set (the catalogue
/// has only 20 versions), so the cache is scaled down to the corpus
/// instead. It has one shard: the default 8 shards would leave 2 entries
/// per shard, and which programs stay resident would then depend on where
/// their hashes fall more than on how often they are asked for.
const CACHE_CAPACITY: usize = 23;
const CACHE_SHARDS: usize = 1;
/// Zipf exponent of the hot-set draw, so the most popular program gets
/// about 13% of the stream. Request popularity in web proxy traces is
/// Zipf-like with exponents of 0.64–0.83 (Breslau et al., "Web Caching and
/// Zipf-like Distributions", INFOCOM 1999); this sits just below that
/// range, because with s = 1 the top program alone got a quarter of the
/// stream and which program the seed made most popular moved every number.
const ZIPF_S: f64 = 0.6;
/// Share of requests that carry a never-seen program: an edit of a hot
/// program (see [`corpus::edited`]), which the daemon must build cold and
/// write to its store.
const EDIT_SHARE: f64 = 0.04;

/// A running daemon and its store directory.
struct Daemon {
    server: Server,
    dir: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Hot programs in corpus order (the catalogued versions in catalogue
/// order, then the mutants): the indices of each program's corpus items,
/// which the generator keeps adjacent.
fn programs(corpus: &Corpus) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, item) in corpus.items.iter().enumerate() {
        match groups.last_mut() {
            Some(group) if corpus.items[group[0]].job.program == item.job.program => group.push(i),
            _ => groups.push(vec![i]),
        }
    }
    groups
}

/// One timed set-up: corpus generation, daemon boot and the warm-up pass.
/// Returns its duration, the corpus, the daemon and the warm-up answers.
fn set_up(settings: &Settings, round: usize) -> Result<(f64, Corpus, Daemon, Vec<Json>), String> {
    let started = Instant::now();
    let corpus = corpus::service_mix(settings.seed);
    let dir = work_dir().join(format!("store-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServiceConfig {
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        cache_shards: CACHE_SHARDS,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("daemon did not start: {e}"))?;
    let daemon = Daemon { server, dir };
    match warm_up(&daemon, &corpus) {
        Ok(answers) => Ok((started.elapsed().as_secs_f64(), corpus, daemon, answers)),
        Err(e) => {
            daemon.stop();
            Err(e)
        }
    }
}

/// Answers every hot job once; the first job of each program builds it.
fn warm_up(daemon: &Daemon, corpus: &Corpus) -> Result<Vec<Json>, String> {
    let mut client =
        Client::connect(daemon.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut answers = Vec::new();
    for item in &corpus.items {
        let outcome = client
            .localize(item.job.clone())
            .map_err(|e| format!("warm-up {}: {e}", item.label))?;
        answers.push(outcome.body);
    }
    Ok(answers)
}

/// Waits until the daemon's store has written `entries` records, so that
/// evicted hot programs come back from disk. Not part of the timed set-up.
fn await_store_writes(addr: std::net::SocketAddr, entries: u64) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let writes = stats
            .get("store")
            .and_then(|s| s.get("writes"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if writes >= entries {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("store wrote {writes} of {entries} entries"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The hot-set draw: the program of rank `r` (0-based, in corpus order)
/// is drawn with weight `(r+1)^-ZIPF_S` (Zipf). The ranking does not depend
/// on the seed, so every seed has the same popular programs; a seeded
/// ranking let the cost of whichever program came first move every latency
/// number by a fifth from seed to seed.
struct Skew {
    cumulative: Vec<f64>,
}

impl Skew {
    fn new(programs: usize) -> Skew {
        let mut total = 0.0;
        let cumulative = (0..programs)
            .map(|r| {
                total += ((r + 1) as f64).powf(-ZIPF_S);
                total
            })
            .collect();
        Skew { cumulative }
    }

    fn draw(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("a non-empty hot set");
        let x = unit(rng) * total;
        let rank = self.cumulative.partition_point(|&c| c <= x);
        rank.min(self.cumulative.len() - 1)
    }
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

struct Answer {
    /// The hot job, or the job an edit was made of.
    item: usize,
    ms: f64,
    traced: bool,
    /// Tier and canonical answer bytes, or the error.
    result: Result<(String, String), String>,
}

/// Runs the workload: [`SETUP_REPEATS`] timed set-ups (each daemon is
/// stopped before the next set-up starts; the last one is kept), `CLIENTS`
/// closed-loop callers for `settings.seconds`, the output checks and, in
/// the traced run, the per-layer probes.
pub fn run(settings: &Settings) -> Outcome {
    let mut outcome = Outcome::default();
    let mut kept: Option<(Corpus, Daemon, Vec<Json>)> = None;
    let mut previous: Option<String> = None;
    for round in 0..SETUP_REPEATS {
        if let Some((corpus, daemon, _)) = kept.take() {
            daemon.stop();
            previous = Some(corpus.describe());
            drop(corpus);
            // `peak_rss_mb` counts one daemon: the last one.
            stats::reset_peak_rss();
        }
        match set_up(settings, round) {
            Ok((secs, corpus, daemon, warm)) => {
                outcome.setup_s.push(secs);
                if previous.as_ref().is_some_and(|p| *p != corpus.describe()) {
                    outcome.problem("corpus generation is not deterministic".to_string());
                }
                let hot = programs(&corpus).len() as u64;
                if let Err(e) = await_store_writes(daemon.server.local_addr(), hot) {
                    outcome.problem(e);
                }
                kept = Some((corpus, daemon, warm));
            }
            Err(e) => {
                outcome.problem(e);
                return outcome;
            }
        }
    }
    let (corpus, daemon, warm) = kept.expect("at least one set-up");
    let groups = programs(&corpus);
    eprintln!(
        "service-mix: {} hot programs ({} jobs), cache capacity {CACHE_CAPACITY}",
        groups.len(),
        corpus.items.len(),
    );

    // fault_found_rate and the reference answers come from the warm-up
    // pass, which answers every hot job exactly once.
    let mut first = Vec::with_capacity(warm.len());
    for (item, body) in corpus.items.iter().zip(&warm) {
        outcome.judged += 1;
        outcome.found += usize::from(blames(body, item));
        first.push(canonicalize(body).to_string());
    }

    let addr = daemon.server.local_addr();
    let origin = Instant::now();
    let next_edit = AtomicUsize::new(0);
    let skew = Skew::new(groups.len());
    let mut tracer = Tracer::new(origin);
    let mut answers: Vec<Answer> = Vec::new();
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (corpus, groups, skew, next_edit) = (&corpus, &groups, &skew, &next_edit);
                scope.spawn(move || {
                    caller(settings, c, origin, addr, corpus, groups, skew, next_edit)
                })
            })
            .collect();
        for handle in callers {
            let (t, a) = handle.join().expect("a client thread panicked");
            tracer.merge(t);
            answers.extend(a);
        }
    });
    outcome.window_s = origin.elapsed().as_secs_f64();

    let mut tiers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for answer in &answers {
        outcome.attempted += 1;
        let item = &corpus.items[answer.item];
        let (tier, canonical) = match &answer.result {
            Ok(ok) => ok,
            Err(e) => {
                outcome.fail(format!("{}: {e}", item.label));
                continue;
            }
        };
        if first[answer.item] != *canonical {
            outcome.fail(format!(
                "{}: {tier} answer differs from the first",
                item.label
            ));
            continue;
        }
        outcome.latencies_ms.push(answer.ms);
        tiers.entry(tier.clone()).or_default().push(answer.ms);
    }
    // Warm-up answers carry the reference bytes, so check them here too.
    for (item, body) in corpus.items.iter().zip(&warm) {
        if body.get("complete").and_then(Json::as_bool) != Some(true) || !item.input_fails() {
            outcome.problem(format!("{}: bad warm-up answer", item.label));
        }
    }

    if settings.trace {
        let answered = outcome.latencies_ms.len().max(1) as f64;
        for (tier, share, latency) in [
            (
                "memory",
                "service.tier_share.memory",
                "service.latency_ms.memory",
            ),
            (
                "store",
                "service.tier_share.store",
                "service.latency_ms.store",
            ),
            (
                "built",
                "service.tier_share.built",
                "service.latency_ms.built",
            ),
        ] {
            let samples = tiers.get(tier).map_or(&[][..], Vec::as_slice);
            outcome
                .layers
                .insert(share, samples.len() as f64 / answered);
            outcome
                .layers
                .insert(latency, stats::median(samples).unwrap_or(0.0));
        }
        let traced: Vec<f64> = answers
            .iter()
            .filter(|a| a.traced && a.result.is_ok())
            .map(|a| a.ms)
            .collect();
        let untraced: Vec<f64> = answers
            .iter()
            .filter(|a| !a.traced && a.result.is_ok())
            .map(|a| a.ms)
            .collect();
        outcome.trace_overhead_ms = stats::median(&traced)
            .zip(stats::median(&untraced))
            .map(|(t, u)| t - u);
        if let Err(e) = daemon_counters(&mut outcome, addr) {
            outcome.problem(e);
        }
        if let Err(e) = probe_service_layers(&mut tracer, &corpus.items, addr) {
            outcome.problem(e);
        }
        probe::prepare_layers(&mut tracer, &corpus.items);
        outcome.tracer = Some(tracer);
    }
    daemon.stop();
    outcome
}

/// `true` when the report blames one of the item's fault lines.
fn blames(body: &Json, item: &Item) -> bool {
    let lines = body
        .get("suspect_lines")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    lines
        .iter()
        .filter_map(Json::as_u64)
        .any(|l| item.fault_lines.iter().any(|f| u64::from(f.0) == l))
}

/// One closed-loop caller: draws its seeded stream and sends each job only
/// after the previous answer arrived, until the window ends.
#[allow(clippy::too_many_arguments)]
fn caller(
    settings: &Settings,
    c: usize,
    origin: Instant,
    addr: std::net::SocketAddr,
    corpus: &Corpus,
    groups: &[Vec<usize>],
    skew: &Skew,
    next_edit: &AtomicUsize,
) -> (Tracer, Vec<Answer>) {
    let mut rng = SplitMix64::seed_from_u64(settings.seed ^ (0xC11E_0000 + c as u64));
    let mut tracer = Tracer::new(origin);
    let mut answers = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(client) => Some(client),
        Err(e) => {
            eprintln!("client {c}: connect failed: {e}");
            None
        }
    };
    let mut seq = 0u64;
    while origin.elapsed().as_secs_f64() < settings.seconds {
        let edit = unit(&mut rng) < EDIT_SHARE;
        let group = &groups[skew.draw(&mut rng)];
        let item = group[rng.gen_range(0..group.len())];
        let job = &corpus.items[item].job;
        let job = if edit {
            corpus::edited(job, next_edit.fetch_add(1, Ordering::Relaxed))
        } else {
            job.clone()
        };
        // Every other request of the traced run is traced; the rest
        // measure the tracing overhead.
        let traced = settings.trace && seq % 2 == 1;
        let request = ((c as u64) << 32) | seq;
        let span = traced.then(|| tracer.open("request", request, None));
        let started = Instant::now();
        let result = match client.as_mut() {
            Some(client) => client.localize(job).map_err(|e| e.to_string()),
            None => Err("not connected".to_string()),
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if let Some(span) = span {
            tracer.close(span);
        }
        let result = result.map(|o| (o.tier, canonicalize(&o.body).to_string()));
        answers.push(Answer {
            item,
            ms,
            traced,
            result,
        });
        seq += 1;
    }
    (tracer, answers)
}

/// Queue and store counters from the daemon's `stats` op.
fn daemon_counters(outcome: &mut Outcome, addr: std::net::SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let read = |section: &str, field: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for (name, section, field) in [
        ("service.queue.shed", "queue", "shed"),
        ("service.queue.expired", "queue", "expired"),
        ("service.avg_exec_ms", "queue", "avg_exec_ms"),
        ("store.hits", "store", "hits"),
        ("store.misses", "store", "misses"),
        ("store.writes", "store", "writes"),
        ("store.write_errors", "store", "write_errors"),
        ("store.corrupt_records", "store", "corrupt_records"),
    ] {
        outcome.layers.insert(name, read(section, field));
    }
    Ok(())
}

/// With the daemon idle, probes a sample of hot jobs: the in-process
/// `new`/`warm`/`localize`, the same job through the daemon (memory tier)
/// for the service overhead, report serialization, and a persist
/// encode → store save → store load → decode round trip in a store
/// directory of the benchmark's own.
fn probe_service_layers(
    t: &mut Tracer,
    items: &[Item],
    addr: std::net::SocketAddr,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let dir = work_dir().join(format!("probe-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = store::Store::open(&dir).map_err(|e| format!("probe store: {e}"))?;
    let result = (|| {
        for (idx, item) in probe::sample(items) {
            let request = probe::PROBE_REQUEST_BASE + idx as u64;
            let entry = item.job.entry.as_str();
            let (spec, config) = (item.job.bmc_spec(), item.job.localizer_config());
            let localizer = t.time("core.new", request, || {
                Localizer::new(&item.program, entry, &spec, &config)
            });
            let localizer = localizer.map_err(|e| format!("{}: {e}", item.label))?;
            t.time("core.prepare", request, || localizer.warm());
            let span = t.open("core.localize", request, None);
            let report = localizer.localize(item.input());
            let localize_ms = t.close(span).as_secs_f64() * 1e3;
            let report = report.map_err(|e| format!("{}: {e}", item.label))?;
            probe::record_report_counts(t, &report, localize_ms);

            // The first call makes the entry memory-resident; the second is
            // the measured memory-tier answer.
            client
                .localize(item.job.clone())
                .map_err(|e| format!("{}: {e}", item.label))?;
            let started = Instant::now();
            let served = client.localize(item.job.clone());
            let client_ms = started.elapsed().as_secs_f64() * 1e3;
            served.map_err(|e| format!("{}: {e}", item.label))?;
            t.count("service.overhead_ms", client_ms - localize_ms);

            t.time("service.json", request, || {
                report_to_json(&report).to_string()
            });

            let key = item.job.cache_key(&item.program);
            let prepared = PreparedEntry::new(item.program.clone(), &item.job, Arc::new(localizer));
            let fingerprint = persist::entry_fingerprint(&prepared);
            let payload = persist::encode_entry(&prepared).ok_or("a warmed entry encodes")?;
            t.time("store.save", request, || {
                store.save(key, fingerprint, &payload)
            })
            .map_err(|e| format!("probe store save: {e}"))?;
            let loaded = t
                .time("store.load", request, || store.load(key, fingerprint))
                .ok_or("probe store load missed")?;
            t.time("service.persist_decode", request, || {
                persist::decode_entry(&loaded)
            })
            .map_err(|e| format!("probe decode: {e}"))?;
        }
        Ok(())
    })();
    store.unlock();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    result
}
