//! The three workloads. Each sets up its world several times (the median
//! is `setup_s`), runs an untraced closed loop for the measured seconds,
//! checks every answer, and — in a traced run — runs a second, traced pass
//! over the same seed for the per-layer numbers.

use crate::layers::{replay_model, replay_query, Analyze, ModelLayers};
use crate::plans::{ingest_plans, olap_stream, wire_plans, PlanGen, Shape, INGEST_SHAPES};
use crate::report::{metric, Metric, Outcome};
use crate::rng::{Fnv, SplitMix, Zipf};
use crate::spans::{Recorder, Source, Totals};
use crate::stats::{answer_error, mean, median, Hist, Windows};
use crate::world::{self, hash_result, identical, structure_fingerprint, Inputs, TABLE};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use themis_core::{
    Answer, CancelToken, EngineOptions, LiveSnapshot, RouteKind, Themis, ThemisSession,
};
use themis_live::AnswerCache;
use themis_query::QueryResult;
use themis_serve::{Client, ServerConfig, ServerHandle, ServerStats, ThemisServer};

/// World set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Model-layer replays per traced run of the query workloads.
pub const MODEL_REPLAYS: usize = 5;
/// Spans kept for the span file of one traced pass.
const SPAN_KEEP: usize = 50_000;

/// `olap_hybrid`: 20-query blocks in the stream.
pub const OLAP_BLOCKS: usize = 10;
/// `wire_zipf`: plans, answer-cache entries and client connections.
pub const WIRE_PLANS: usize = 256;
pub const WIRE_CACHE: usize = 64;
pub const WIRE_CLIENTS: usize = 2;
/// `ingest_stream`: answer-cache entries, rows per ingest, rounds per
/// epoch (each epoch starts again from the set-up model).
pub const INGEST_CACHE: usize = 32;
pub const INGEST_BATCH: usize = 50;
pub const INGEST_ROUNDS: usize = 8;
/// Plans `err_pct` is measured on after the last round of an epoch; the
/// first `INGEST_SHAPES.len()` are the timed ones.
pub const INGEST_EVALUATED: usize = 64;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Set up `SETUP_REPS` times, dropping each world before the next is
/// built (so peak RSS reflects one), and keep the last. Returns it with
/// the set-up times in seconds and the learned structures' fingerprints.
fn timed_setups<S>(
    mut setup: impl FnMut() -> S,
    structure: impl Fn(&S) -> u64,
) -> (S, Vec<f64>, BTreeSet<u64>) {
    let mut state: Option<S> = None;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut structures = BTreeSet::new();
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        let s = setup();
        times.push(start.elapsed().as_secs_f64());
        structures.insert(structure(&s));
        state = Some(s);
    }
    (state.expect("at least one set-up"), times, structures)
}

/// Notes every run records: the machine and the BN structures learned.
fn common_notes(out: &mut Outcome, structures: &BTreeSet<u64>, checksum: u64) {
    out.note("nproc", world::nproc());
    out.note("calibration_ns", world::calibration_ns());
    out.note("bn.structure_variants", structures.len());
    let fps: Vec<String> = structures.iter().map(|f| format!("{f:016x}")).collect();
    out.note("bn.structure_fingerprints", fps.join(","));
    out.note("answer_checksum", format!("{checksum:016x}"));
}

fn end_to_end(setup_times: &[f64], query_p50_ms: f64, qps: f64, err_pct: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", median(setup_times), "s"),
        metric("query_p50_ms", query_p50_ms, "ms"),
        metric("qps", qps, "1/s"),
        metric("err_pct", err_pct, "%"),
        metric("peak_rss_mb", world::peak_rss_mb(), "MB"),
    ]
}

fn failed_pct(out: &Outcome) -> Metric {
    metric(
        "failed_pct",
        100.0 * out.failed as f64 / out.attempted.max(1) as f64,
        "%",
    )
}

/// A p99 only when the run has the samples for it.
fn p99_metric(p99_ms: Option<f64>, samples: u64, out: &mut Outcome) {
    match p99_ms {
        Some(v) => out.extra.push(metric("query_p99_ms", v, "ms")),
        None => out.note(
            "query_p99_ms",
            format!("not reported: {samples} samples, a p99 needs 1000"),
        ),
    }
}

/// Live-metric change over a pass.
#[derive(Debug, Default, Clone, Copy)]
struct LiveDelta {
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    resimulated: u64,
}

impl LiveDelta {
    fn between(a: &LiveSnapshot, b: &LiveSnapshot) -> LiveDelta {
        LiveDelta {
            hits: b.cache_hits - a.cache_hits,
            misses: b.cache_misses - a.cache_misses,
            evictions: b.cache_evictions - a.cache_evictions,
            invalidations: b.cache_invalidations - a.cache_invalidations,
            resimulated: b.replicates_resimulated - a.replicates_resimulated,
        }
    }

    fn add(&mut self, o: LiveDelta) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.invalidations += o.invalidations;
        self.resimulated += o.resimulated;
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerInputs<'a> {
    totals: &'a Totals,
    model: Vec<ModelLayers>,
    structures: usize,
    live: LiveDelta,
    busy: u64,
    untraced_p50_ms: f64,
    traced_p50_ms: f64,
    e2e_ns: u64,
    attributed_ns: u64,
}

fn per_layer(li: &LayerInputs) -> Vec<Metric> {
    let t = li.totals;
    let per_req = |ns: u64| ns as f64 / 1e3 / t.requests.max(1) as f64;
    let med = |f: fn(&ModelLayers) -> f64| {
        if li.model.is_empty() {
            0.0
        } else {
            median(&li.model.iter().map(f).collect::<Vec<_>>())
        }
    };
    let lookups = li.live.hits + li.live.misses;
    let residual = li.e2e_ns as f64 - li.attributed_ns as f64;
    vec![
        metric(
            "sql.parse_us",
            t.per_request_us(Source::Bench, "sql.parse"),
            "us",
        ),
        metric("route.decide_us", per_req(t.derived("route.decide")), "us"),
        metric(
            "query.execute_us",
            t.per_request_us(Source::Bench, "query.execute"),
            "us",
        ),
        metric(
            "query.rows_scanned",
            t.counter("rows_scanned") as f64 / t.requests.max(1) as f64,
            "count",
        ),
        metric(
            "route.consensus_us",
            per_req(
                t.self_ns(Source::Program, "consensus") + t.self_ns(Source::Program, "replicate"),
            ),
            "us",
        ),
        metric(
            "route.replicate_runs",
            t.count(Source::Program, "replicate") as f64 / t.requests.max(1) as f64,
            "count",
        ),
        metric(
            "route.replicate_exec_us",
            per_req(t.replicate_exec_ns),
            "us",
        ),
        metric(
            "route.merge_us",
            t.per_request_us(Source::Program, "merge"),
            "us",
        ),
        metric(
            "route.bn_only_us",
            t.per_request_us(Source::Bench, "route.bn_only"),
            "us",
        ),
        metric(
            "live.probe_us",
            t.per_request_us(Source::Bench, "live.probe"),
            "us",
        ),
        metric(
            "live.hit_pct",
            if lookups == 0 {
                0.0
            } else {
                100.0 * li.live.hits as f64 / lookups as f64
            },
            "%",
        ),
        metric("live.evictions", li.live.evictions as f64, "count"),
        metric("live.invalidated", li.live.invalidations as f64, "count"),
        metric(
            "live.replicates_resimulated",
            li.live.resimulated as f64,
            "count",
        ),
        metric(
            "serve.encode_us",
            t.per_request_us(Source::Bench, "serve.encode"),
            "us",
        ),
        metric(
            "serve.decode_us",
            t.per_request_us(Source::Bench, "serve.decode"),
            "us",
        ),
        metric("serve.socket_us", per_req(t.derived("serve.socket")), "us"),
        metric("serve.busy", li.busy as f64, "count"),
        metric("reweight.ipf_ms", med(|m| m.ipf_ms), "ms"),
        metric(
            "reweight.ipf_iterations",
            med(|m| m.ipf_iterations as f64),
            "count",
        ),
        metric(
            "reweight.ipf_converged",
            mean(
                &li.model
                    .iter()
                    .map(|m| f64::from(u8::from(m.ipf_converged)))
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        metric("aggregates.incidence_ms", med(|m| m.incidence_ms), "ms"),
        metric("bn.structure_ms", med(|m| m.structure_ms), "ms"),
        metric("bn.params_ms", med(|m| m.params_ms), "ms"),
        metric("bn.simulate_ms", med(|m| m.simulate_ms), "ms"),
        metric("bn.structure_variants", li.structures as f64, "count"),
        metric(
            "obs.trace_overhead_pct",
            100.0 * (li.traced_p50_ms - li.untraced_p50_ms) / li.untraced_p50_ms,
            "%",
        ),
        metric(
            "trace.unattributed_pct",
            100.0 * residual / (li.e2e_ns.max(1) as f64),
            "%",
        ),
    ]
}

/// Replay the build's model layers `MODEL_REPLAYS` times on the set-up
/// inputs (untimed work of the traced run).
fn model_replays(inputs: &Inputs, structures: &mut BTreeSet<u64>) -> Vec<ModelLayers> {
    let mut rec = Recorder::new(Instant::now(), 0);
    (0..MODEL_REPLAYS)
        .map(|_| {
            rec.begin_request(0);
            let m = replay_model(
                &mut rec,
                None,
                &inputs.sample,
                &inputs.aggregates,
                inputs.population.len() as f64,
                structures,
            );
            rec.end_request();
            m
        })
        .collect()
}

// ---------------------------------------------------------------- olap_hybrid

struct Olap {
    inputs: Inputs,
    session: ThemisSession,
    stream: Vec<(Shape, String)>,
    truth: Vec<QueryResult>,
}

impl Olap {
    fn setup(seed: u64) -> Olap {
        let inputs = Inputs::generate(seed);
        let stream = olap_stream(
            &mut PlanGen::new(&inputs.sample, SplitMix::stream(seed, 10)),
            OLAP_BLOCKS,
        );
        let truth = stream.iter().map(|(_, sql)| inputs.truth(sql)).collect();
        let session = ThemisSession::new(inputs.build());
        // Warm-up: the first grouped query simulates the K replicates.
        let (_, first_grouped) = stream
            .iter()
            .find(|(s, _)| *s == Shape::Group1)
            .expect("every block has 1-D groups");
        session.sql(first_grouped).expect("warm-up query answers");
        Olap {
            inputs,
            session,
            stream,
            truth,
        }
    }
}

/// One pass over the `olap_hybrid` stream until `seconds` pass.
struct OlapPass {
    latencies: Hist,
    windows: Windows,
    wall_s: f64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    answers: Vec<Option<QueryResult>>,
    e2e_ns: u64,
    attributed_ns: u64,
}

fn olap_pass(w: &Olap, seconds: f64, mut rec: Option<&mut Recorder>) -> OlapPass {
    let engine = w.session.engine().clone();
    // Expected routes, from the same decision function execution uses.
    let expected: Vec<RouteKind> = w
        .stream
        .iter()
        .map(|(_, sql)| {
            w.session
                .explain_with(sql, &engine)
                .expect("plans explain")
                .route
        })
        .collect();
    let probe = AnswerCache::new(WIRE_CACHE);
    let mut pass = OlapPass {
        latencies: Hist::default(),
        windows: Windows::new(seconds),
        wall_s: 0.0,
        attempted: 0,
        failed: 0,
        mismatches: 0,
        answers: vec![None; w.stream.len()],
        e2e_ns: 0,
        attributed_ns: 0,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let idx = i % w.stream.len();
        let sql = &w.stream[idx].1;
        pass.attempted += 1;
        let answer: Option<Answer> = match rec.as_deref_mut() {
            None => {
                let t = Instant::now();
                let r = w.session.sql(sql);
                let d = t.elapsed();
                match r {
                    Ok(a) => {
                        pass.latencies.record(d);
                        pass.windows.record(start.elapsed());
                        Some(a)
                    }
                    Err(_) => None,
                }
            }
            Some(rec) => {
                rec.begin_request(i as u64);
                let r = replay_query(
                    rec,
                    &w.session,
                    &engine,
                    sql,
                    &probe,
                    0,
                    Analyze::Always,
                    None,
                );
                rec.end_request();
                let analyze_ns = r.analyze_ns.expect("analyze ran");
                pass.latencies.record(Duration::from_nanos(analyze_ns));
                pass.e2e_ns += analyze_ns;
                pass.attributed_ns += r.attributed_ns;
                r.answer
            }
        };
        match answer {
            None => pass.failed += 1,
            Some(a) => {
                if a.route.kind() != expected[idx] || a.route.degraded().is_some() {
                    pass.mismatches += 1;
                }
                if pass.answers[idx].is_none() {
                    pass.answers[idx] = Some(a.result);
                }
            }
        }
        i += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

pub fn olap_hybrid(p: &Params) -> Outcome {
    let (w, setup_times, mut structures) = timed_setups(
        || Olap::setup(p.seed),
        |w| structure_fingerprint(&w.session.model()),
    );
    let mut out = Outcome::default();
    let pass = olap_pass(&w, p.seconds, None);
    out.attempted = pass.attempted;
    out.mismatches = pass.mismatches;

    // Accuracy over the whole stream, independent of how far the timed
    // loop got: positions it did not reach are answered now, untimed.
    let mut errors = Vec::with_capacity(w.stream.len());
    let mut checksum = Fnv::default();
    for (idx, (_, sql)) in w.stream.iter().enumerate() {
        let result = match &pass.answers[idx] {
            Some(r) => r.clone(),
            None => match w.session.sql(sql) {
                Ok(a) => a.result,
                Err(_) => {
                    out.failed += 1;
                    continue;
                }
            },
        };
        hash_result(&mut checksum, &result);
        errors.push(answer_error(&w.truth[idx], &result));
    }
    out.failed += pass.failed + pass.mismatches;
    let p50 = pass
        .latencies
        .quantile_ms(0.5)
        .expect("the run answered queries");
    common_notes(&mut out, &structures, checksum.finish());
    out.note("queries", pass.latencies.len());
    out.note("distinct_plans", w.stream.len());
    out.note("model", w.session.model().describe().replace('\n', " | "));
    if !p.trace {
        let qps = pass.windows.rate(pass.wall_s);
        out.metrics = end_to_end(&setup_times, p50, qps, mean(&errors));
        p99_metric(
            pass.latencies.quantile_ms(0.99),
            pass.latencies.len(),
            &mut out,
        );
        out.extra.push(failed_pct(&out));
        return out;
    }

    let mut rec = Recorder::new(Instant::now(), SPAN_KEEP);
    let traced = olap_pass(&w, p.seconds, Some(&mut rec));
    out.attempted += traced.attempted;
    out.failed += traced.failed + traced.mismatches;
    out.mismatches += traced.mismatches;
    let model = model_replays(&w.inputs, &mut structures);
    let traced_p50 = traced
        .latencies
        .quantile_ms(0.5)
        .expect("the traced pass answered queries");
    out.metrics = per_layer(&LayerInputs {
        totals: &rec.totals,
        model,
        structures: structures.len(),
        live: LiveDelta::default(),
        busy: 0,
        untraced_p50_ms: p50,
        traced_p50_ms: traced_p50,
        e2e_ns: traced.e2e_ns,
        attributed_ns: traced.attributed_ns,
    });
    out.note("traced_requests", rec.totals.requests);
    out.spans = Some(rec.span_file());
    out
}

// ---------------------------------------------------------------- wire_zipf

struct Wire {
    oracle: ThemisSession,
    served: Arc<ThemisSession>,
    plans: Vec<String>,
    oracle_answers: Vec<Answer>,
    truth: Vec<QueryResult>,
    inputs: Inputs,
    clients: Vec<Client>,
    handle: ServerHandle,
    stats: Arc<ServerStats>,
    server: Option<JoinHandle<std::io::Result<()>>>,
}

/// The engine every server connection runs with (the default
/// `ServerConfig`): the oracle answers with the same.
fn wire_engine() -> EngineOptions {
    EngineOptions::with_threads(ServerConfig::default().threads)
}

impl Wire {
    fn setup(seed: u64) -> Wire {
        let inputs = Inputs::generate(seed);
        let plans = wire_plans(
            &mut PlanGen::new(&inputs.sample, SplitMix::stream(seed, 20)),
            WIRE_PLANS,
        );
        let truth = plans.iter().map(|sql| inputs.truth(sql)).collect();
        let model = inputs.build();
        let engine = wire_engine();
        let oracle = ThemisSession::with_engine(model.clone(), engine.clone());
        let oracle_answers = plans
            .iter()
            .map(|sql| oracle.sql(sql).expect("oracle answers every plan"))
            .collect();
        let served = Arc::new(ThemisSession::new(model).with_answer_cache(WIRE_CACHE));
        // Warm-up: simulate the served world's replicates through a traced
        // query, which bypasses (and so leaves empty) the answer cache.
        let grouped = plans
            .iter()
            .find(|sql| sql.contains("GROUP BY"))
            .expect("wire plans include grouped queries");
        served
            .analyze_with(grouped, &engine)
            .expect("warm-up query answers");
        let server =
            ThemisServer::bind("127.0.0.1:0", Arc::clone(&served), ServerConfig::default())
                .expect("bind a loopback port");
        let handle = server.handle();
        let stats = server.stats();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.serve());
        let clients = (0..WIRE_CLIENTS)
            .map(|_| Client::connect(addr).expect("connect to the loopback server"))
            .collect();
        Wire {
            oracle,
            served,
            plans,
            oracle_answers,
            truth,
            inputs,
            clients,
            handle,
            stats,
            server: Some(thread),
        }
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        // Close the connections first: each server worker serves its
        // connection until EOF, then sees the shutdown flag.
        self.clients.clear();
        self.handle.shutdown();
        if let Some(thread) = self.server.take() {
            let _ = thread.join();
        }
    }
}

struct WireClientPass {
    latencies: Hist,
    windows: Windows,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    e2e_ns: u64,
    attributed_ns: u64,
}

fn wire_pass(
    w: &mut Wire,
    seed: u64,
    seconds: f64,
    recorders: Option<&mut Vec<Recorder>>,
) -> (Vec<WireClientPass>, f64) {
    let zipf = Zipf::new(w.plans.len(), 1.0);
    let probe: AnswerCache<()> = AnswerCache::new(WIRE_CACHE);
    let engine = wire_engine();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (plans, oracle, answers) = (&w.plans, &w.oracle, &w.oracle_answers);
    let mut recs: Vec<Option<&mut Recorder>> = match recorders {
        Some(r) => r.iter_mut().map(Some).collect(),
        None => (0..w.clients.len()).map(|_| None).collect(),
    };
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .clients
            .iter_mut()
            .zip(recs.iter_mut())
            .enumerate()
            .map(|(c, (client, rec))| {
                let (zipf, probe, engine) = (&zipf, &probe, &engine);
                let mut rec = rec.take();
                s.spawn(move || {
                    let mut rng = SplitMix::stream(seed, 100 + c as u64);
                    let mut pass = WireClientPass {
                        latencies: Hist::default(),
                        windows: Windows::new(seconds),
                        attempted: 0,
                        failed: 0,
                        mismatches: 0,
                        e2e_ns: 0,
                        attributed_ns: 0,
                    };
                    let mut request = (c as u64) << 40;
                    while Instant::now() < deadline {
                        let rank = zipf.sample(&mut rng);
                        let sql = &plans[rank];
                        pass.attempted += 1;
                        request += 1;
                        if let Some(rec) = rec.as_deref_mut() {
                            rec.begin_request(request);
                        }
                        let (outcome, rt) = match rec.as_deref_mut() {
                            None => {
                                let t = Instant::now();
                                let outcome = client.query(sql);
                                (outcome, t.elapsed())
                            }
                            Some(rec) => {
                                let (outcome, rt_ns) =
                                    rec.time("serve.roundtrip", || client.query(sql));
                                (outcome, Duration::from_nanos(rt_ns))
                            }
                        };
                        let answer = match outcome {
                            Ok(Ok(a)) => a,
                            Ok(Err(_)) => {
                                pass.failed += 1;
                                if let Some(rec) = rec.as_deref_mut() {
                                    rec.end_request();
                                }
                                continue;
                            }
                            Err(_) => {
                                pass.failed += 1;
                                break;
                            }
                        };
                        pass.latencies.record(rt);
                        pass.windows.record(start.elapsed());
                        let oracle_answer = &answers[rank];
                        if !identical(&answer.result, &oracle_answer.result)
                            || answer.route != oracle_answer.route
                        {
                            pass.mismatches += 1;
                        }
                        if let Some(rec) = rec.as_deref_mut() {
                            let server_ns = ns(answer.elapsed);
                            let wire_answer = Answer {
                                result: answer.result,
                                route: answer.route,
                                elapsed: answer.elapsed,
                            };
                            // Mirror the server's cache with the bench
                            // probe: only a miss replays the execution.
                            let r = replay_query(
                                rec,
                                oracle,
                                engine,
                                sql,
                                probe,
                                0,
                                Analyze::OnProbeMiss,
                                Some(wire_answer),
                            );
                            let rt_ns = ns(rt);
                            let socket =
                                rt_ns.saturating_sub(server_ns + r.encode_ns + r.decode_ns);
                            rec.totals.add_derived("serve.socket", socket);
                            pass.e2e_ns += rt_ns;
                            let session_attr = r.parse_ns + r.probe_ns + r.attributed_ns;
                            pass.attributed_ns +=
                                socket + r.encode_ns + r.decode_ns + session_attr.min(server_ns);
                            rec.end_request();
                        }
                    }
                    pass
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (results, start.elapsed().as_secs_f64())
}

pub fn wire_zipf(p: &Params) -> Outcome {
    let (mut w, setup_times, mut structures) = timed_setups(
        || Wire::setup(p.seed),
        |w| structure_fingerprint(&w.served.model()),
    );
    let mut out = Outcome::default();
    let live0 = w.served.live_snapshot();
    let busy0 = w.stats.busy_rejections.get();
    let (clients, wall_s) = wire_pass(&mut w, p.seed, p.seconds, None);
    let live = LiveDelta::between(&live0, &w.served.live_snapshot());
    let busy = w.stats.busy_rejections.get() - busy0;
    let mut lat = Hist::default();
    let mut windows = Windows::new(p.seconds);
    for c in &clients {
        out.attempted += c.attempted;
        out.failed += c.failed + c.mismatches;
        out.mismatches += c.mismatches;
        lat.merge(&c.latencies);
        windows.merge(&c.windows);
    }
    let p50 = lat.quantile_ms(0.5).expect("the run answered queries");
    let mut checksum = Fnv::default();
    for a in &w.oracle_answers {
        hash_result(&mut checksum, &a.result);
    }
    let errors: Vec<f64> = w
        .truth
        .iter()
        .zip(&w.oracle_answers)
        .map(|(t, a)| answer_error(t, &a.result))
        .collect();
    common_notes(&mut out, &structures, checksum.finish());
    out.note("queries", lat.len());
    out.note(
        "cache",
        format!(
            "{} hits, {} misses, {} evictions over {WIRE_PLANS} plans, {WIRE_CACHE} entries",
            live.hits, live.misses, live.evictions
        ),
    );
    if !p.trace {
        out.metrics = end_to_end(&setup_times, p50, windows.rate(wall_s), mean(&errors));
        p99_metric(lat.quantile_ms(0.99), lat.len(), &mut out);
        out.extra.push(failed_pct(&out));
        return out;
    }

    let origin = Instant::now();
    let mut recs: Vec<Recorder> = (0..WIRE_CLIENTS)
        .map(|_| Recorder::new(origin, SPAN_KEEP / WIRE_CLIENTS))
        .collect();
    let (traced, _) = wire_pass(&mut w, p.seed, p.seconds, Some(&mut recs));
    let mut rec = recs.remove(0);
    for r in recs {
        rec.absorb(r);
    }
    let mut traced_lat = Hist::default();
    let (mut e2e, mut attributed) = (0, 0);
    for c in &traced {
        out.attempted += c.attempted;
        out.failed += c.failed + c.mismatches;
        out.mismatches += c.mismatches;
        traced_lat.merge(&c.latencies);
        e2e += c.e2e_ns;
        attributed += c.attributed_ns;
    }
    let model = model_replays(&w.inputs, &mut structures);
    out.metrics = per_layer(&LayerInputs {
        totals: &rec.totals,
        model,
        structures: structures.len(),
        live,
        busy,
        untraced_p50_ms: p50,
        traced_p50_ms: traced_lat
            .quantile_ms(0.5)
            .expect("the traced pass answered queries"),
        e2e_ns: e2e,
        attributed_ns: attributed,
    });
    out.note("traced_requests", rec.totals.requests);
    out.spans = Some(rec.span_file());
    out
}

// ---------------------------------------------------------------- ingest_stream

struct Ingest {
    inputs: Inputs,
    model: Themis,
    plans: Vec<String>,
    truth: Vec<QueryResult>,
    batches: Vec<Vec<Vec<String>>>,
    /// The first epoch's session, warmed during set-up.
    session: Option<ThemisSession>,
}

/// A cache-enabled session over the set-up model, replicates simulated.
fn ingest_session(model: &Themis, warm_sql: &str) -> ThemisSession {
    let session = ThemisSession::new(model.clone()).with_answer_cache(INGEST_CACHE);
    let engine = session.engine().clone();
    // Traced: bypasses the cache, so the epoch starts with it empty.
    session
        .analyze_with(warm_sql, &engine)
        .expect("warm-up query answers");
    session
}

impl Ingest {
    fn setup(seed: u64) -> Ingest {
        let inputs = Inputs::generate(seed);
        let plans = ingest_plans(
            &mut PlanGen::new(&inputs.sample, SplitMix::stream(seed, 30)),
            INGEST_EVALUATED,
        );
        let truth = plans.iter().map(|sql| inputs.truth(sql)).collect();
        let mut rng = SplitMix::stream(seed, 31);
        let batches = (0..INGEST_ROUNDS)
            .map(|_| inputs.population_batch(&mut rng, INGEST_BATCH))
            .collect();
        let model = inputs.build();
        let session = Some(ingest_session(&model, &plans[0]));
        Ingest {
            inputs,
            model,
            plans,
            truth,
            batches,
            session,
        }
    }
}

#[derive(Default)]
struct IngestPass {
    ingest_ms: Vec<f64>,
    /// Time spent in ingests and both query sweeps (not in checks).
    busy_s: f64,
    fresh_ms: Vec<f64>,
    /// Sweep 1 (misses after the ingest) and sweep 2 (hits).
    miss: Hist,
    hit: Hist,
    queries: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// Pass-1 answers after the last round of the first epoch.
    final_answers: Vec<QueryResult>,
    live: LiveDelta,
    model: Vec<ModelLayers>,
    e2e_ns: u64,
    attributed_ns: u64,
}

fn ingest_pass(
    w: &mut Ingest,
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    structures: &mut BTreeSet<u64>,
) -> IngestPass {
    let mut pass = IngestPass::default();
    let probe: AnswerCache<()> = AnswerCache::new(INGEST_CACHE);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut request = 0u64;
    let mut epoch = 0usize;
    while epoch == 0 || Instant::now() < deadline {
        let session = match w.session.take() {
            Some(s) => s,
            None => ingest_session(&w.model, &w.plans[0]),
        };
        let engine = session.engine().clone();
        // An uncached query on the pinned generation: a cancel token makes
        // the session bypass its answer cache.
        let uncached = EngineOptions {
            cancel: Some(CancelToken::new()),
            ..engine.clone()
        };
        let live0 = session.live_snapshot();
        for round in 0..INGEST_ROUNDS {
            if epoch > 0 && Instant::now() >= deadline {
                break;
            }
            let batch = &w.batches[round];
            let before = rec.as_ref().map(|_| session.model());
            let t0 = Instant::now();
            pass.attempted += 1;
            let ingested = session.ingest(TABLE, batch);
            let ingest_d = t0.elapsed();
            if ingested.is_err() {
                pass.failed += 1;
                continue;
            }
            pass.ingest_ms.push(ms(ingest_d));
            let mut round_e2e = ns(ingest_d);
            let mut round_attr = 0u64;
            if let (Some(rec), Some(before)) = (rec.as_deref_mut(), before.as_ref()) {
                let grown = themis_live::grow_relation(before.reweighted_sample(), batch)
                    .expect("the batch ingested");
                rec.begin_request(request);
                request += 1;
                let m = replay_model(
                    rec,
                    Some(before.reweighted_sample()),
                    &grown,
                    &w.inputs.aggregates,
                    w.inputs.population.len() as f64,
                    structures,
                );
                rec.end_request();
                round_attr += ((m.total_ms() + m.simulate_ms) * 1e6) as u64;
                pass.model.push(m);
            }
            let generation = session.generation();
            let timed = &w.plans[..INGEST_SHAPES.len()];
            let mut first_pass = Vec::with_capacity(timed.len());
            for sweep in 0..2 {
                let snap = session.live_snapshot();
                for (i, sql) in timed.iter().enumerate() {
                    pass.attempted += 1;
                    let t = Instant::now();
                    let r = session.sql(sql);
                    let d = t.elapsed();
                    let Ok(answer) = r else {
                        pass.failed += 1;
                        continue;
                    };
                    pass.queries += 1;
                    round_e2e += ns(d);
                    if sweep == 0 {
                        pass.miss.record(d);
                        if i == 0 {
                            pass.fresh_ms.push(ms(t0.elapsed()));
                        }
                    } else {
                        pass.hit.record(d);
                    }
                    if let Some(rec) = rec.as_deref_mut() {
                        rec.begin_request(request);
                        request += 1;
                        let r = replay_query(
                            rec,
                            &session,
                            &engine,
                            sql,
                            &probe,
                            generation,
                            if sweep == 0 {
                                Analyze::Always
                            } else {
                                Analyze::Never
                            },
                            Some(answer.clone()),
                        );
                        rec.end_request();
                        round_attr += if sweep == 0 {
                            r.attributed_ns
                        } else {
                            r.parse_ns + r.probe_ns
                        };
                    }
                    if sweep == 0 {
                        first_pass.push(answer);
                    } else {
                        // Every hit must equal an uncached answer on the
                        // same generation, bit for bit.
                        pass.attempted += 1;
                        match session.sql_with(sql, &uncached) {
                            Ok(u)
                                if identical(&u.result, &answer.result)
                                    && u.route == answer.route => {}
                            _ => pass.mismatches += 1,
                        }
                    }
                }
                let after = session.live_snapshot();
                let d = LiveDelta::between(&snap, &after);
                let expected = timed.len() as u64;
                if (sweep == 0 && d.misses != expected) || (sweep == 1 && d.hits != expected) {
                    pass.mismatches += 1;
                }
            }
            pass.busy_s += round_e2e as f64 / 1e9;
            pass.e2e_ns += round_e2e;
            pass.attributed_ns += round_attr;
            if epoch == 0 && round == INGEST_ROUNDS - 1 {
                // The error after the last round: the timed plans' answers,
                // then the rest of the evaluated plans, answered untimed and
                // uncached on the same generation.
                pass.final_answers = first_pass.into_iter().map(|a| a.result).collect();
                for sql in &w.plans[timed.len()..] {
                    pass.attempted += 1;
                    match session.sql_with(sql, &uncached) {
                        Ok(a) => pass.final_answers.push(a.result),
                        Err(_) => pass.failed += 1,
                    }
                }
            }
        }
        pass.live
            .add(LiveDelta::between(&live0, &session.live_snapshot()));
        epoch += 1;
    }
    pass
}

pub fn ingest_stream(p: &Params) -> Outcome {
    let (mut w, setup_times, mut structures) = timed_setups(
        || Ingest::setup(p.seed),
        |w| structure_fingerprint(&w.model),
    );
    let mut out = Outcome::default();
    let pass = ingest_pass(&mut w, p.seconds, None, &mut BTreeSet::new());
    out.attempted = pass.attempted;
    out.failed = pass.failed + pass.mismatches;
    out.mismatches = pass.mismatches;
    let mut checksum = Fnv::default();
    for r in &pass.final_answers {
        hash_result(&mut checksum, r);
    }
    let errors: Vec<f64> = w
        .truth
        .iter()
        .zip(&pass.final_answers)
        .map(|(t, r)| answer_error(t, r))
        .collect();
    common_notes(&mut out, &structures, checksum.finish());
    out.note("rounds", pass.ingest_ms.len());
    let rounds: Vec<String> = pass.ingest_ms.iter().map(|v| format!("{v:.0}")).collect();
    out.note("ingest_ms", rounds.join(" "));
    out.note("queries", pass.queries);
    let miss_p50 = pass
        .miss
        .quantile_ms(0.5)
        .expect("the run answered queries");
    if !p.trace {
        out.metrics = end_to_end(
            &setup_times,
            miss_p50,
            // A total, not a median of rounds: ingest times are bimodal
            // (see README, BN structure), and a median flips between modes.
            pass.queries as f64 / pass.busy_s,
            mean(&errors),
        );
        out.extra
            .push(metric("ingest_p50_ms", median(&pass.ingest_ms), "ms"));
        out.extra
            .push(metric("fresh_p50_ms", median(&pass.fresh_ms), "ms"));
        out.extra.push(metric(
            "hit_p50_ms",
            pass.hit.quantile_ms(0.5).expect("the run answered queries"),
            "ms",
        ));
        let mut all = pass.miss.clone();
        all.merge(&pass.hit);
        p99_metric(all.quantile_ms(0.99), all.len(), &mut out);
        out.extra.push(failed_pct(&out));
        return out;
    }

    let mut rec = Recorder::new(Instant::now(), SPAN_KEEP);
    let traced = ingest_pass(&mut w, p.seconds, Some(&mut rec), &mut structures);
    out.attempted += traced.attempted;
    out.failed += traced.failed + traced.mismatches;
    out.mismatches += traced.mismatches;
    out.metrics = per_layer(&LayerInputs {
        totals: &rec.totals,
        model: traced.model,
        structures: structures.len(),
        live: pass.live,
        busy: 0,
        untraced_p50_ms: miss_p50,
        traced_p50_ms: traced
            .miss
            .quantile_ms(0.5)
            .expect("the traced pass answered queries"),
        e2e_ns: traced.e2e_ns,
        attributed_ns: traced.attributed_ns,
    });
    out.note("traced_requests", rec.totals.requests);
    out.spans = Some(rec.span_file());
    out
}
