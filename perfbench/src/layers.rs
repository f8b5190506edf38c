//! Per-layer replays for the traced pass: each layer's public entry point
//! is called on the request's inputs under a bench span.

use crate::rng::Fnv;
use crate::spans::Recorder;
use crate::world::structure_hash;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use themis_aggregates::{AggregateSet, IncidenceMatrix};
use themis_bn::parameters::{learn_parameters, ParamSource};
use themis_bn::{learn_structure, LearnOptions, StructureSource};
use themis_core::{Answer, RouteKind, ThemisConfig, ThemisSession};
use themis_data::Relation;
use themis_live::{plan_fingerprint, AnswerCache};
use themis_query::{Catalog, EngineOptions, QueryTrace, TraceSpan};
use themis_reweight::{ipf_on_incidence, IpfOptions};
use themis_serve::protocol::{answer_body, decode_answer};
use themis_serve::Json;

/// Program span names that only wrap layers (their self time is the
/// session's own bookkeeping, left unattributed).
const WRAPPERS: [&str; 2] = ["query", "hybrid"];

/// µs of a program trace covered by named layers.
pub fn program_attributed_us(trace: &QueryTrace) -> u64 {
    fn walk(span: &TraceSpan) -> u64 {
        let children: u64 = span.children.iter().map(|c| c.elapsed_us).sum();
        let own = if WRAPPERS.contains(&span.name.as_str()) {
            0
        } else {
            span.elapsed_us.saturating_sub(children)
        };
        own + span.children.iter().map(walk).sum::<u64>()
    }
    trace.spans.iter().map(walk).sum()
}

/// When a replay runs the session's `analyze_with`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Analyze {
    Always,
    Never,
    /// Only when the bench's probe cache misses — mirroring a served
    /// session, whose cache hits never execute.
    OnProbeMiss,
}

/// What one request's replay measured, in ns.
#[derive(Debug, Default)]
pub struct Replay {
    pub parse_ns: u64,
    pub probe_ns: u64,
    pub probe_hit: bool,
    pub encode_ns: u64,
    pub decode_ns: u64,
    /// Session time `analyze_with` took, when it ran.
    pub analyze_ns: Option<u64>,
    /// Part of `analyze_ns` inside named program layers.
    pub attributed_ns: u64,
    pub answer: Option<Answer>,
}

/// The query-path layers of one request, replayed under the open request
/// of `rec`:
///
/// * `sql.parse` — `themis_sql::parse`;
/// * `route.explain` — `explain_with`; `route.decide` is it minus parse;
/// * `live.probe` — `plan_fingerprint` + `AnswerCache::get` on `probe`;
/// * `session.analyze` — `analyze_with` with its span tree grafted below
///   (only when `analyze`), plus `route.bn_only` — `sql_bn_only_with` —
///   for hybrid answers, the cross-check of the consensus span;
/// * `query.execute` — `execute_parallel` over the model's sample;
/// * `serve.encode` / `serve.decode` — the wire codec on the answer.
///
/// `answer` is the answer to encode; without one, the analyzed answer is.
#[allow(clippy::too_many_arguments)]
pub fn replay_query(
    rec: &mut Recorder,
    session: &ThemisSession,
    engine: &EngineOptions,
    sql: &str,
    probe: &AnswerCache<()>,
    generation: u64,
    analyze: Analyze,
    answer: Option<Answer>,
) -> Replay {
    let mut out = Replay::default();
    let (query, parse_ns) = rec.time("sql.parse", || themis_sql::parse(sql));
    out.parse_ns = parse_ns;
    let query = query.expect("benchmark plans parse");
    let (_, explain_ns) = rec.time("route.explain", || session.explain_with(sql, engine));
    rec.totals
        .add_derived("route.decide", explain_ns.saturating_sub(parse_ns));

    let (hit, probe_ns) = rec.time("live.probe", || {
        let fp = plan_fingerprint(&query, &engine.limits, generation);
        let hit = probe.get(&fp).is_some();
        (fp, hit)
    });
    out.probe_ns = probe_ns;
    out.probe_hit = hit.1;
    if !hit.1 {
        probe.insert(&hit.0, Arc::new(()));
    }

    let mut answer = answer;
    let analyze = match analyze {
        Analyze::Always => true,
        Analyze::Never => false,
        Analyze::OnProbeMiss => !out.probe_hit,
    };
    if analyze {
        let root = rec.open("session.analyze");
        let analyzed = session
            .analyze_with(sql, engine)
            .expect("benchmark plans answer");
        out.analyze_ns = Some(rec.close(root));
        rec.graft(root, &analyzed.trace);
        out.attributed_ns = program_attributed_us(&analyzed.trace) * 1_000;
        if analyzed.answer.route.kind() == RouteKind::Hybrid {
            rec.time("route.bn_only", || session.sql_bn_only_with(sql, engine))
                .0
                .expect("hybrid plans answer from the BN alone");
        }
        answer = answer.or(Some(analyzed.answer));
    }

    let model = session.model();
    rec.time("query.execute", || {
        let mut catalog = Catalog::new();
        for table in &query.from {
            catalog.register(table.name.clone(), Arc::clone(model.sample_arc()));
        }
        themis_query::execute_parallel(&catalog, &query, engine)
    })
    .0
    .expect("benchmark plans run on the sample");

    if let Some(answer) = &answer {
        let (line, encode_ns) = rec.time("serve.encode", || answer_body(answer).to_string());
        out.encode_ns = encode_ns;
        let (decoded, decode_ns) = rec.time("serve.decode", || {
            Json::parse(&line)
                .map_err(|e| e.to_string())
                .and_then(|j| decode_answer(&j))
        });
        out.decode_ns = decode_ns;
        decoded.expect("encoded answers decode");
    }
    out.answer = answer;
    out
}

/// Model-layer timings of one reweight-and-learn pass, in ms.
#[derive(Debug, Default, Clone)]
pub struct ModelLayers {
    pub incidence_ms: f64,
    pub ipf_ms: f64,
    pub ipf_iterations: usize,
    pub ipf_converged: bool,
    pub structure_ms: f64,
    pub params_ms: f64,
    pub simulate_ms: f64,
}

impl ModelLayers {
    pub fn total_ms(&self) -> f64 {
        self.incidence_ms + self.ipf_ms + self.structure_ms + self.params_ms
    }
}

fn ms(rec: &mut Recorder, name: &str, f: impl FnOnce()) -> f64 {
    rec.time(name, f).1 as f64 / 1e6
}

/// Replay the model build's layers on `sample` (unweighted rows):
/// `IncidenceMatrix::build` (or `extend` of `base`'s matrix when given,
/// as ingest does), `ipf_on_incidence`, `learn_structure`,
/// `learn_parameters` and `forward_samples`. The learned structure's
/// fingerprint goes into `structures`.
pub fn replay_model(
    rec: &mut Recorder,
    base: Option<&Relation>,
    sample: &Relation,
    aggregates: &AggregateSet,
    population: f64,
    structures: &mut BTreeSet<u64>,
) -> ModelLayers {
    let config = ThemisConfig::default();
    let ipf = IpfOptions::default();
    let options = LearnOptions::default();
    let mut out = ModelLayers::default();

    let prebuilt = base.map(|b| IncidenceMatrix::build(b, aggregates));
    let mut matrix = None;
    out.incidence_ms = ms(rec, "aggregates.incidence", || {
        matrix = Some(match &prebuilt {
            Some(m) => {
                let mut m = m.clone();
                m.extend(sample, aggregates);
                m
            }
            None => IncidenceMatrix::build(sample, aggregates),
        });
    });
    let matrix = matrix.expect("incidence built");
    let mut weights = None;
    out.ipf_ms = ms(rec, "reweight.ipf", || {
        weights = Some(ipf_on_incidence(&matrix, sample.len(), &ipf));
    });
    let (weights, report) = weights.expect("ipf ran");
    out.ipf_iterations = report.iterations;
    out.ipf_converged = report.converged;
    let mut weighted = sample.clone();
    weighted.set_weights(weights);

    let mut parents = None;
    out.structure_ms = ms(rec, "bn.structure", || {
        parents = Some(learn_structure(
            &weighted,
            aggregates,
            population,
            StructureSource::Both,
            &options.structure,
        ));
    });
    let parents = parents.expect("structure learned");
    let mut h = Fnv::default();
    structure_hash(&mut h, &parents);
    structures.insert(h.finish());

    let mut bn = None;
    out.params_ms = ms(rec, "bn.params", || {
        bn = Some(learn_parameters(
            &weighted,
            aggregates,
            population,
            parents,
            ParamSource::Both,
            &options.params,
        ));
    });
    let bn = bn.expect("parameters learned");
    out.simulate_ms = ms(rec, "bn.simulate", || {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        std::hint::black_box(themis_bn::sampling::forward_samples(
            &bn,
            config.k_samples,
            sample.len(),
            population,
            &mut rng,
        ));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_are_left_unattributed() {
        let span = |name: &str, us, children| TraceSpan {
            name: name.into(),
            elapsed_us: us,
            counters: Vec::new(),
            notes: Vec::new(),
            children,
        };
        let trace = QueryTrace {
            spans: vec![span(
                "query",
                100,
                vec![
                    span("parse", 5, vec![]),
                    span(
                        "hybrid",
                        90,
                        vec![
                            span(
                                "execute:sample",
                                20,
                                vec![span("execute_parallel", 18, vec![])],
                            ),
                            span("consensus", 50, vec![span("replicate", 45, vec![])]),
                            span("merge", 10, vec![]),
                        ],
                    ),
                ],
            )],
        };
        // 100 total − query self 5 − hybrid self 10 = 85 attributed.
        assert_eq!(program_attributed_us(&trace), 85);
    }
}
