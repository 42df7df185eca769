//! `serve_mix`: the padding service's request path, one request at a time
//! (the way a compiler calling the service waits on each answer), over
//! seeded `mlc_fuzz::requests::RequestStream`s of `/simulate` (cold and
//! steady) and `/optimize` requests. One unit is one request.
//!
//! The timed requests go through `mlc_serve::api::handle` on a fresh
//! one-worker `ServeState` whose cache directory the stream's first replay
//! filled: each request is parsed and prechecked, `/simulate` is answered
//! from the in-memory front or the disk cache, `/optimize` runs its search
//! and reads its simulations from the cache, and the answer is serialized.
//! With small generated programs that is mostly `.case` parsing, the IR
//! precheck, rescache reads and JSON: the opposite of the grid. Repeated
//! keys are fixed by the stream, so the share of front answers does not
//! depend on timing.
//!
//! The cold path (simulations computed and stored) and the socket are
//! driven and checked in every run, untimed: each stream's first replay
//! runs on an empty cache, and one closed-loop connection replays the
//! first stream against a fresh `mlc_serve::Server`. The socket's share of
//! a request is measured in the traced run. On the reference host both
//! the socket and the cache's file creation move with regimes of the host
//! that outlast a run (see the README), so they are kept out of the
//! bounded metrics.

use crate::layers::{self, panic_text, Counts, OptimizeFailure, Times};
use crate::summary::{Round, RoundLog};
use crate::trace::Tracer;
use crate::{rounds, stats, timed, timed_work, Outcome, RunConfig};
use mlc_cache_sim::MissRateReport;
use mlc_core::rescache::report_from_json;
use mlc_core::{
    try_simulate_analytic, try_simulate_steady_analytic, CacheKey, OptimizeOptions, ResultCache,
    SimProtocol,
};
use mlc_fuzz::{CaseConfig, RequestStream, RequestStreamConfig, ServeRequest};
use mlc_model::corpus::parse_case;
use mlc_model::trace_gen::CompiledNest;
use mlc_model::{DataLayout, Program};
use mlc_serve::server::{DEFAULT_MAX_BODY_BYTES, DEFAULT_QUEUE_DEPTH};
use mlc_serve::{send_request, Request, ServeCounters, ServeState, Server, ServerConfig};
use mlc_telemetry::json::JsonValue;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Requests in each stream.
pub const STREAM_REQUESTS: usize = 1000;

/// Distinct streams in a run, each with its own pool of cases. The rounds
/// cycle through them.
pub const STREAMS: usize = 16;

/// Nominal seconds of one round on the reference host, a 2-vCPU Xeon VM
/// (a round measured 0.03 s to 0.06 s with the host's load): a run makes
/// `round(seconds / NOMINAL_ROUND_S)` rounds, so its work depends only on
/// `--seconds`, never on host speed.
pub const NOMINAL_ROUND_S: f64 = 0.05;

/// Requests per distinct pool case. Every case is requested about this
/// often across three endpoint shapes, which keeps the share of answers
/// from the in-memory front well above one half, so the median request is
/// a front answer and never sits on the boundary between front answers
/// and disk reads or searches.
pub const REQUESTS_PER_CASE: usize = 8;

/// Percent of requests that go to `/optimize`.
pub const OPTIMIZE_PERCENT: u64 = 10;

/// Health checks sent after start-up, untimed by the unit metrics.
const WARMUP_PINGS: usize = 16;

/// The stream every round replays.
pub fn stream_config() -> RequestStreamConfig {
    RequestStreamConfig {
        requests: STREAM_REQUESTS,
        pool: STREAM_REQUESTS / REQUESTS_PER_CASE,
        optimize_percent: OPTIMIZE_PERCENT,
        case: CaseConfig::default(),
    }
}

/// The stream seed of round `round` of a run with benchmark seed `seed`.
/// `RequestStream` draws its pool cases from `seed, seed + 1, ...`, so
/// nearby seeds would share all but a few pool cases; mixing the bits (the
/// SplitMix64 finalizer) gives every round of every run an unrelated pool.
/// Rounds differ in their pools so that the median over a run's rounds
/// also averages over inputs, not only over the host's speed.
pub fn stream_seed(seed: u64, round: u64) -> u64 {
    let mix = |x: u64| {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    mix(mix(seed) ^ round)
}

/// A running server that shuts down (drain, join) when dropped.
struct Live(Server);

impl Drop for Live {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

fn start(cache_dir: &Path) -> Result<Live, String> {
    let cache = ResultCache::open(cache_dir).map_err(|e| format!("cache dir: {e}"))?;
    let server = Server::start(ServerConfig {
        workers: Some(1),
        cache: Some(Arc::new(cache)),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let live = Live(server);
    for _ in 0..WARMUP_PINGS {
        let r = send_request(live.0.addr(), "GET", "/healthz", "")
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up: /healthz answered {}", r.status));
        }
    }
    Ok(live)
}

/// One answer as kept for the checks: its status and a digest of its body,
/// plus the whole body for the first request of each key.
#[derive(Debug, Clone)]
pub struct Answer {
    pub status: u16,
    pub digest: u64,
    pub body: Option<String>,
}

fn digest(body: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// For each request, the index of the first request with the same bytes
/// (same pool case, same path and query).
fn first_of_key(requests: &[ServeRequest]) -> Vec<usize> {
    let mut first = BTreeMap::new();
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            *first
                .entry((r.pool_index, r.path_and_query.as_str()))
                .or_insert(i)
        })
        .collect()
}

fn answer(first: bool, status: u16, body: String) -> Answer {
    Answer {
        status,
        digest: digest(&body),
        body: first.then_some(body),
    }
}

/// Replay the stream over one closed-loop connection. Returns each
/// request's round-trip time in seconds and its answer; a transport error
/// is kept as status 0.
fn socket_pass(
    t: &mut Tracer,
    addr: SocketAddr,
    requests: &[ServeRequest],
    first: &[usize],
) -> (Vec<f64>, Vec<Answer>) {
    let mut lat = Vec::with_capacity(requests.len());
    let mut answers = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        t.set_unit(i as u64);
        let t0 = Instant::now();
        let resp = t.span("request", |_| {
            send_request(addr, "POST", &r.path_and_query, &r.body)
        });
        lat.push(t0.elapsed().as_secs_f64());
        answers.push(match resp {
            Ok(resp) => answer(first[i] == i, resp.status, resp.body),
            Err(e) => answer(first[i] == i, 0, e.to_string()),
        });
    }
    (lat, answers)
}

fn to_request(r: &ServeRequest) -> Request {
    let (path, query) = r
        .path_and_query
        .split_once('?')
        .unwrap_or((&r.path_and_query, ""));
    Request {
        method: "POST".into(),
        path: path.into(),
        query: query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: r.body.clone(),
    }
}

/// A fresh service state, as a one-worker server holds it, over a fresh
/// cache directory.
fn serve_state(cache_dir: &Path) -> Result<ServeState, String> {
    Ok(ServeState {
        cache: Arc::new(ResultCache::open(cache_dir).map_err(|e| format!("cache dir: {e}"))?),
        counters: Arc::new(ServeCounters::default()),
        workers: 1,
        queue_depth: DEFAULT_QUEUE_DEPTH,
        max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        started: Instant::now(),
    })
}

/// Replay the stream through `mlc_serve::api::handle`, in process: the
/// server's request path without the socket. Returns each request's
/// latency in seconds (decoding the request included) and its answer.
fn handle_pass(
    t: &mut Tracer,
    state: &ServeState,
    requests: &[ServeRequest],
    first: &[usize],
) -> (Vec<f64>, Vec<Answer>) {
    let mut lat = Vec::with_capacity(requests.len());
    let mut answers = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        t.set_unit(i as u64);
        let t0 = Instant::now();
        let resp = t.span("handle", |_| mlc_serve::api::handle(state, &to_request(r)));
        lat.push(t0.elapsed().as_secs_f64());
        answers.push(answer(first[i] == i, resp.status, resp.body));
    }
    (lat, answers)
}

/// What the in-process API says a request must be answered with.
#[derive(Debug, Clone)]
pub enum Expected {
    /// `/simulate`: the report, its cache key and the case's pads.
    Simulate {
        key: String,
        report: MissRateReport,
        pads: Vec<u64>,
    },
    /// `/optimize`: the chosen pads and the before/after reports.
    Optimize {
        pads: Vec<u64>,
        before: MissRateReport,
        after: MissRateReport,
    },
    /// A documented typed decline: this status and error code.
    Decline { status: u16, code: &'static str },
    /// The in-process API itself failed; no answer can be right.
    Bug(String),
}

/// Judge one answer against its expectation.
pub fn judge(expected: &Expected, status: u16, body: &str) -> Result<(), String> {
    let json = || JsonValue::parse(body).map_err(|e| format!("unparseable body: {e:?}"));
    let report = |v: &JsonValue, path: &str| -> Result<MissRateReport, String> {
        let node = path
            .split('.')
            .try_fold(v, |v, k| v.get(k).ok_or(format!("no {path} field")))?;
        report_from_json(node)
    };
    let pads = |v: &JsonValue| -> Option<Vec<u64>> {
        v.get("pads")?
            .as_array()?
            .iter()
            .map(JsonValue::as_u64)
            .collect()
    };
    match expected {
        Expected::Bug(msg) => Err(format!(
            "in-process API failed ({msg}); server answered {status}"
        )),
        Expected::Decline { status: want, code } => {
            let got = json()
                .ok()
                .and_then(|v| v.get("error")?.get("code")?.as_str().map(str::to_string));
            if status == *want && got.as_deref() == Some(*code) {
                Ok(())
            } else {
                Err(format!("expected {want} {code}, got {status}: {body}"))
            }
        }
        _ if status != 200 => Err(format!("expected 200, got {status}: {body}")),
        Expected::Simulate {
            key,
            report: want,
            pads: want_pads,
        } => {
            let v = json()?;
            if v.get("key").and_then(JsonValue::as_str) != Some(key.as_str()) {
                return Err(format!("key differs from {key}: {body}"));
            }
            if report(&v, "report")? != *want || pads(&v).as_ref() != Some(want_pads) {
                return Err(format!("report or pads differ from in-process: {body}"));
            }
            Ok(())
        }
        Expected::Optimize {
            pads: want_pads,
            before,
            after,
        } => {
            let v = json()?;
            if pads(&v).as_ref() != Some(want_pads)
                || report(&v, "before.report")? != *before
                || report(&v, "after.report")? != *after
            {
                return Err(format!("optimize answer differs from in-process: {body}"));
            }
            Ok(())
        }
    }
}

/// Judge every answer of one pass. The first answer of each key is judged
/// against the in-process expectation; every repeat must carry the same
/// status and body bytes as a first answer that passed.
pub fn check_answers(
    first: &[usize],
    expected: &BTreeMap<usize, Expected>,
    answers: &[Answer],
) -> Vec<Result<(), String>> {
    let mut verdicts: Vec<Result<(), String>> = Vec::with_capacity(answers.len());
    for (i, a) in answers.iter().enumerate() {
        let f = first[i];
        let v = if a.status == 0 {
            Err("transport error".to_string())
        } else if f == i {
            match expected.get(&i) {
                Some(e) => judge(e, a.status, a.body.as_deref().unwrap_or_default()),
                None => Err("no in-process expectation".into()),
            }
        } else if verdicts[f].is_err() {
            Err(format!("repeat of failed request {f}"))
        } else if (a.status, a.digest) != (answers[f].status, answers[f].digest) {
            Err(format!("answer differs from request {f}'s"))
        } else {
            Ok(())
        };
        verdicts.push(v);
    }
    verdicts
}

/// The answers of a stream's first replay that passed the check, as
/// (status, body digest); `None` for a failed one.
pub type Verified = Vec<Option<(u16, u64)>>;

fn ms(seconds: Option<f64>) -> JsonValue {
    seconds.map_or(JsonValue::Null, |s| JsonValue::Num(s * 1e3))
}

/// Judge every answer of a later replay of a stream: each must repeat,
/// byte for byte, the answer of the stream's first replay, which was
/// judged in full (`verified`, `None` where that answer failed).
pub fn check_replay(
    verified: &[Option<(u16, u64)>],
    answers: &[Answer],
) -> Vec<Result<(), String>> {
    answers
        .iter()
        .enumerate()
        .map(|(i, a)| match verified.get(i) {
            _ if a.status == 0 => Err("transport error".to_string()),
            Some(Some(v)) if *v == (a.status, a.digest) => Ok(()),
            Some(Some(_)) => Err("answer differs from the first replay's".into()),
            _ => Err("the first replay's answer failed".into()),
        })
        .collect()
}

fn protocol_of(path_and_query: &str) -> SimProtocol {
    if path_and_query.contains("protocol=cold") {
        SimProtocol::Cold
    } else {
        SimProtocol::Steady {
            warmup: 1,
            timed: 1,
        }
    }
}

/// The server's IR precheck, in process: compile every nest.
fn precheck(t: &mut Tracer, c: &mut Counts, p: &Program, layout: &DataLayout) -> bool {
    c.compile_nests += p.nests.len() as u64;
    t.span("compile", |_| {
        p.nests
            .iter()
            .all(|nest| CompiledNest::try_new(p, nest, layout).is_ok())
    })
}

/// In-process simulations through a private result cache, the way the
/// handlers memoize them: each distinct key simulates once, and the cache's
/// own lookups and stores are timed as the `rescache` layer. The expected
/// report is always the simulation's own output, held by the cache's
/// in-memory front.
struct Reference {
    cache: ResultCache,
    failed: BTreeMap<u64, String>,
}

impl Reference {
    fn simulate(
        &mut self,
        t: &mut Tracer,
        c: &mut Counts,
        (p, layout, h): (&Program, &DataLayout, &mlc_cache_sim::HierarchyConfig),
        protocol: SimProtocol,
    ) -> Result<(CacheKey, MissRateReport), String> {
        let key = CacheKey::derive(p, layout, h, protocol);
        if let Some(e) = self.failed.get(&key.digest()) {
            return Err(e.clone());
        }
        let sweeps = match protocol {
            SimProtocol::Cold => (0, 1),
            SimProtocol::Steady { warmup, timed } => (warmup, timed),
        };
        let mut failure = None;
        let report = t.span("rescache", |t| {
            self.cache.get_or_compute(key, || {
                layers::simulate(t, c, (p, layout), sweeps, false, || match protocol {
                    SimProtocol::Cold => try_simulate_analytic(p, layout, h),
                    SimProtocol::Steady { warmup, timed } => {
                        try_simulate_steady_analytic(p, layout, h, warmup as usize, timed as usize)
                    }
                })
                .unwrap_or_else(|e| {
                    failure = Some(e.to_string());
                    MissRateReport::from_levels(vec![])
                })
            })
        });
        match failure {
            Some(e) => {
                self.failed.insert(key.digest(), e.clone());
                Err(e)
            }
            None => Ok((key, report)),
        }
    }

    /// What the server must answer `r` with, computed through the same
    /// public functions the handlers call, in the handlers' order.
    fn expect(&mut self, t: &mut Tracer, c: &mut Counts, r: &ServeRequest) -> Expected {
        let case = match t.span("case.parse", |_| parse_case(&r.body)) {
            Ok((case, _)) => case,
            Err(_) => {
                return Expected::Decline {
                    status: 400,
                    code: "malformed_case",
                }
            }
        };
        let invalid_ir = Expected::Decline {
            status: 422,
            code: "invalid_ir",
        };
        let (p, h) = (&case.program, &case.hierarchy);
        let layout = case.layout();
        if !precheck(t, c, p, &layout) {
            return invalid_ir;
        }
        let protocol = protocol_of(&r.path_and_query);
        if r.path_and_query.starts_with("/simulate") {
            return match self.simulate(t, c, (p, &layout, h), protocol) {
                Ok((key, report)) => Expected::Simulate {
                    key: key.to_hex(),
                    report,
                    pads: case.pads.clone(),
                },
                Err(e) => Expected::Bug(e),
            };
        }
        let options = if h.depth() >= 2 {
            OptimizeOptions::multilvl_group()
        } else {
            OptimizeOptions::l1_group()
        };
        let opt = match layers::optimize(t, c, p, h, &options) {
            Ok(opt) => opt,
            Err(OptimizeFailure::Pad(_)) => {
                return Expected::Decline {
                    status: 422,
                    code: "optimize_failed",
                }
            }
            Err(OptimizeFailure::Panic(msg)) if msg.contains("padding search for") => {
                return Expected::Decline {
                    status: 422,
                    code: "search_exhausted",
                }
            }
            Err(OptimizeFailure::Panic(msg)) => return Expected::Bug(msg),
        };
        if !precheck(t, c, &opt.program, &opt.layout) {
            return invalid_ir;
        }
        let before = self.simulate(t, c, (p, &layout, h), protocol);
        let after = self.simulate(t, c, (&opt.program, &opt.layout, h), protocol);
        match (before, after) {
            (Ok((_, before)), Ok((_, after))) => Expected::Optimize {
                pads: opt.layout.pads(&opt.program.arrays),
                before,
                after,
            },
            (Err(e), _) | (_, Err(e)) => Expected::Bug(e),
        }
    }
}

/// Expectations for the first request of every key. With `mirror`, every
/// request is replayed (parse, precheck, and `/optimize`'s search run per
/// request, as in the server; simulations once per key), so the traced
/// spans show the server's own mix of work.
fn reference_pass(
    t: &mut Tracer,
    c: &mut Counts,
    cache_dir: &Path,
    requests: &[ServeRequest],
    first: &[usize],
    mirror: bool,
) -> Result<BTreeMap<usize, Expected>, String> {
    let mut reference = Reference {
        cache: ResultCache::open(cache_dir).map_err(|e| format!("cache dir: {e}"))?,
        failed: BTreeMap::new(),
    };
    let mut expected = BTreeMap::new();
    for (i, r) in requests.iter().enumerate() {
        if first[i] != i && !mirror {
            continue;
        }
        t.set_unit(i as u64);
        let e = t.span("reference", |t| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reference.expect(t, c, r)))
                .unwrap_or_else(|p| Expected::Bug(panic_text(p.as_ref())))
        });
        if first[i] == i {
            expected.insert(i, e);
        }
    }
    Ok(expected)
}

/// Run the workload: untraced rounds, round r replaying stream
/// r % STREAMS through `mlc_serve::api::handle` on a fresh state over the
/// stream's filled cache, then the checked socket pass. A traced run adds
/// one traced socket round on a fresh server and an empty cache, one
/// in-process replay through `mlc_serve::api::handle` on a fresh state
/// and an empty cache, and an in-process replay of the handlers' work
/// through the public API, all on the first stream.
pub fn run(cfg: &RunConfig, work: &Path, t: &mut Tracer) -> Result<Outcome, String> {
    let n_rounds = rounds(cfg.seconds, NOMINAL_ROUND_S, false);
    let mut dirs = 0usize;
    let mut cache_dir = || -> PathBuf {
        dirs += 1;
        work.join(format!("cache-{dirs}"))
    };
    let stream_of = |round: usize| {
        RequestStream::generate(stream_seed(cfg.seed, round as u64), &stream_config())
    };

    let mut quiet = Tracer::new(false);
    let mut scratch = Counts::default();
    // One slot per stream; a round replays one stream once.
    let mut log = RoundLog::new(STREAMS, STREAM_REQUESTS);
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut record = |name: &str, verdicts: Vec<Result<(), String>>| {
        attempted += verdicts.len() as u64;
        for (i, v) in verdicts.into_iter().enumerate() {
            if let Err(e) = v {
                failures.push(format!("{name} request {i}: {e}"));
            }
        }
    };
    // Each stream's cache directory, filled by the stream's first replay,
    // and that replay's checked answers.
    let mut warm: Vec<Option<(PathBuf, Verified)>> = vec![None; STREAMS];
    for round in 0..n_rounds {
        let k = round % STREAMS;
        if warm[k].is_none() {
            // Untimed: the stream's first replay, on a fresh state over an
            // empty cache, computes and stores every key; its answers are
            // judged against the in-process API.
            let dir = cache_dir();
            let stream = stream_of(k);
            let first = first_of_key(&stream.requests);
            let state = serve_state(&dir)?;
            let (_, answers) = handle_pass(&mut quiet, &state, &stream.requests, &first);
            drop(state);
            let ref_dir = cache_dir();
            let expected = reference_pass(
                &mut quiet,
                &mut scratch,
                &ref_dir,
                &stream.requests,
                &first,
                false,
            )?;
            let _ = std::fs::remove_dir_all(&ref_dir);
            let verdicts = check_answers(&first, &expected, &answers);
            let verified = answers
                .iter()
                .zip(&verdicts)
                .map(|(a, v)| v.is_ok().then_some((a.status, a.digest)))
                .collect();
            record(&format!("stream {k} first replay"), verdicts);
            warm[k] = Some((dir, verified));
        }
        let (dir, verified) = warm[k].as_ref().expect("filled above");
        // The round's set-up: its stream, and a fresh service state over
        // the stream's filled cache directory. Round r replays stream
        // r % STREAMS, so every request of every stream repeats, on
        // identical state, once every STREAMS rounds.
        let ((stream, state), setup_s) = timed(|| Ok((stream_of(k), serve_state(dir)?)))?;
        let first = first_of_key(&stream.requests);
        let ((lat, answers), wall_s, peak_rss_mb) =
            timed_work(|| handle_pass(&mut quiet, &state, &stream.requests, &first));
        drop(state);
        log.push(Round {
            setup_s,
            unit_ms: lat.iter().map(|s| s * 1e3).collect(),
            wall_s,
            peak_rss_mb,
        })?;
        // Checked once the round is timed: every answer must repeat the
        // stream's first replay byte for byte.
        record(&format!("round {round}"), check_replay(verified, &answers));
    }
    let verified0 = &warm[0].as_ref().ok_or("no rounds")?.1;
    // The same service over its socket: one closed-loop connection replays
    // the first stream on a fresh server; every answer must repeat the
    // in-process answer byte for byte. Timed apart from the metrics.
    let stream = stream_of(0);
    let first = first_of_key(&stream.requests);
    let server = start(&cache_dir())?;
    let (socket_lat, socket_answers) =
        socket_pass(&mut quiet, server.0.addr(), &stream.requests, &first);
    drop(server);
    record("socket pass", check_replay(verified0, &socket_answers));

    let mut counts = Counts::default();
    let mut times = Times::default();
    if t.on() {
        let stream = stream_of(0);
        let requests = &stream.requests;
        let first = first_of_key(requests);
        let server = start(&cache_dir())?;
        mlc_core::take_analytic_stats();
        let (lat, traced) = socket_pass(t, server.0.addr(), requests, &first);
        counts.add_analytic(mlc_core::take_analytic_stats());
        counts.rescache = server.0.cache().stats();
        drop(server);
        for a in &traced {
            counts.status(a.status);
        }
        times.unit_s = lat.iter().sum();
        times.untraced_unit_s = socket_lat.iter().sum();
        let (_, handled) = handle_pass(t, &serve_state(&cache_dir())?, requests, &first);
        times.handle_s = t.layers().get("handle").map_or(0.0, |l| l.1);
        mlc_core::take_analytic_stats();
        let expected = reference_pass(t, &mut counts, &cache_dir(), requests, &first, true)?;
        mlc_core::take_analytic_stats();
        times.account_base_s = t.layers().get("reference").map_or(0.0, |l| l.1);
        record("traced round", check_answers(&first, &expected, &traced));
        record("handle", check_answers(&first, &expected, &handled));
    }

    Ok(Outcome {
        rounds: log,
        attempted,
        failures,
        per_layer: layers::per_layer_metrics(t, &counts, &times),
        detail: vec![
            ("requests_per_round", (STREAM_REQUESTS as u64).into()),
            ("streams", (STREAMS as u64).into()),
            ("socket_p50_ms", ms(stats::median(&socket_lat))),
            ("socket_tail_ms", ms(stats::tail(&socket_lat).map(|t| t.1))),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error_body(code: &str, status: u16) -> String {
        format!(r#"{{"error":{{"code":"{code}","status":{status},"message":"m"}}}}"#)
    }

    #[test]
    fn documented_422_matching_the_in_process_decline_passes() {
        let e = Expected::Decline {
            status: 422,
            code: "search_exhausted",
        };
        assert_eq!(judge(&e, 422, &error_body("search_exhausted", 422)), Ok(()));
        // A different 422, or a 500, is a failure.
        assert!(judge(&e, 422, &error_body("optimize_failed", 422)).is_err());
        assert!(judge(&e, 500, &error_body("internal", 500)).is_err());
        // A 422 where the in-process API answers is a failure.
        let ok = Expected::Simulate {
            key: "00".into(),
            report: MissRateReport::from_levels(vec![]),
            pads: vec![],
        };
        assert!(judge(&ok, 422, &error_body("invalid_ir", 422)).is_err());
    }

    #[test]
    fn fail_counting_covers_firsts_repeats_and_transport() {
        // Requests 0 and 2 share a key; 1 and 3 share another; 4 is alone.
        let first = vec![0, 1, 0, 1, 4];
        let decline = Expected::Decline {
            status: 422,
            code: "invalid_ir",
        };
        let expected: BTreeMap<usize, Expected> = [
            (0, decline.clone()),
            (1, Expected::Bug("in-process panic".into())),
            (4, decline),
        ]
        .into_iter()
        .collect();
        let ok = error_body("invalid_ir", 422);
        let answers = vec![
            answer(true, 422, ok.clone()),     // documented decline: passes
            answer(true, 500, "x".into()),     // 5xx: fails
            answer(false, 422, ok.clone()),    // repeat of a passing answer
            answer(false, 500, "x".into()),    // repeat of a failed one: fails
            answer(true, 0, "refused".into()), // transport error: fails
        ];
        let failed = |vs: &[Result<(), String>]| vs.iter().filter(|v| v.is_err()).count();
        let verdicts = check_answers(&first, &expected, &answers);
        assert_eq!(failed(&verdicts), 3, "{verdicts:#?}");
        // A repeat whose bytes differ from its passing first answer fails.
        let mut drifted = answers.clone();
        drifted[2] = answer(false, 422, error_body("invalid_ir", 423));
        assert_eq!(failed(&check_answers(&first, &expected, &drifted)), 4);
    }

    #[test]
    fn a_replay_must_repeat_the_checked_first_replay() {
        let first = [answer(true, 200, "a".into()), answer(true, 422, "b".into())];
        let verified = vec![Some((200, first[0].digest)), None];
        let failed = |answers: &[Answer]| {
            check_replay(&verified, answers)
                .iter()
                .map(Result::is_err)
                .collect::<Vec<_>>()
        };
        // The second request failed in the first replay, so it fails again.
        assert_eq!(failed(&first), [false, true]);
        // A changed body, or a transport error, fails.
        let changed = [
            answer(false, 200, "a2".into()),
            answer(false, 0, "x".into()),
        ];
        assert_eq!(failed(&changed), [true, true]);
        // An answer beyond the first replay's length fails.
        assert_eq!(
            failed(&[first[0].clone(), first[0].clone(), first[0].clone()]),
            [false, true, true]
        );
    }

    #[test]
    fn consecutive_seeds_get_unrelated_pools() {
        let cfg = stream_config();
        let pool = |seed| {
            let s = RequestStream::generate(stream_seed(seed, 0), &cfg);
            let mut bodies: Vec<String> = s.requests.into_iter().map(|r| r.body).collect();
            bodies.sort();
            bodies.dedup();
            bodies
        };
        let (a, b) = (pool(1), pool(2));
        let shared = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
        assert!(
            shared * 10 < a.len(),
            "{shared} of {} pool cases shared",
            a.len()
        );
    }

    #[test]
    fn stream_keeps_cache_answers_the_majority() {
        let cfg = stream_config();
        let s = RequestStream::generate(3, &cfg);
        let repeats = 1.0 - s.distinct_keys as f64 / s.requests.len() as f64;
        assert!(repeats > 0.6, "repeat share {repeats}");
    }
}
