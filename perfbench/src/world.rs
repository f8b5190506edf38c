//! The data every workload shares: the Flights population, the biased
//! `June` sample, the paper's default aggregates and model, and ground
//! truth on the population.

use crate::rng::{mix, Fnv, SplitMix};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use themis_aggregates::gamma::all_aggregates_of_dim;
use themis_aggregates::{select_tcherry, AggregateSet};
use themis_core::{Themis, ThemisConfig};
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_data::{AttrId, Relation};
use themis_query::{Catalog, EngineOptions, QueryResult, Value};

/// Population rows of the Flights generator.
pub const POPULATION_ROWS: usize = 60_000;
/// Pruned 2-D aggregates the model learns from (the paper's B = 4, d = 2).
pub const AGGREGATES: usize = 4;
/// The table name every plan queries.
pub const TABLE: &str = "flights";

/// Generated inputs of one seed.
pub struct Inputs {
    pub population: Arc<Relation>,
    pub sample: Relation,
    pub aggregates: AggregateSet,
}

impl Inputs {
    /// Population, `June` sample (10% of the population, 90% June) and the
    /// four t-cherry-pruned 2-D aggregates. The population is the
    /// generator's fixed dataset, as the paper's Flights table is one fixed
    /// table; `seed` draws the biased sample from it.
    pub fn generate(seed: u64) -> Inputs {
        let dataset = FlightsDataset::generate(FlightsConfig {
            n: POPULATION_ROWS,
            ..FlightsConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(mix(seed, 2));
        let sample = dataset.sample_june(&mut rng);
        let population = dataset.population;
        let attrs: Vec<AttrId> = population.schema().attr_ids().collect();
        let candidates = all_aggregates_of_dim(&population, &attrs, 2);
        let picked = select_tcherry(&candidates, AGGREGATES);
        let aggregates =
            AggregateSet::from_results(picked.iter().map(|&i| candidates[i].clone()).collect());
        Inputs {
            population: Arc::new(population),
            sample,
            aggregates,
        }
    }

    /// The paper's default model: IPF + BB, K = 10 replicates.
    pub fn build(&self) -> Themis {
        Themis::build(
            self.sample.clone(),
            self.aggregates.clone(),
            self.population.len() as f64,
            ThemisConfig::default(),
        )
    }

    /// The true answer of `sql` on the population.
    pub fn truth(&self, sql: &str) -> QueryResult {
        let query = themis_sql::parse(sql).expect("benchmark plans parse");
        let mut catalog = Catalog::new();
        catalog.register(TABLE, Arc::clone(&self.population));
        themis_query::execute_parallel(&catalog, &query, &EngineOptions::default())
            .expect("benchmark plans run on the population")
    }

    /// Population row `row` as labels, in schema order — an ingest row.
    pub fn population_labels(&self, row: usize) -> Vec<String> {
        let schema = self.population.schema();
        schema
            .attr_ids()
            .map(|a| {
                schema
                    .domain(a)
                    .label(self.population.value(row, a))
                    .to_string()
            })
            .collect()
    }

    /// `count` population rows drawn uniformly with `rng`, as labels.
    pub fn population_batch(&self, rng: &mut SplitMix, count: usize) -> Vec<Vec<String>> {
        (0..count)
            .map(|_| self.population_labels(rng.below(self.population.len())))
            .collect()
    }
}

/// A fingerprint of a model's learned BN structure (every node's parents).
pub fn structure_fingerprint(model: &Themis) -> u64 {
    let mut h = Fnv::default();
    if let Some(bn) = model.bayesian_network() {
        structure_hash(
            &mut h,
            &(0..bn.arity())
                .map(|i| bn.parents(AttrId(i)).to_vec())
                .collect::<Vec<_>>(),
        );
    }
    h.finish()
}

/// Fold a parent-set list into a hash.
pub fn structure_hash(h: &mut Fnv, parents: &[Vec<AttrId>]) {
    for (node, ps) in parents.iter().enumerate() {
        h.u64(node as u64);
        for p in ps {
            h.u64(p.0 as u64 + 1_000);
        }
    }
}

/// Fold a result, bit for bit, into a checksum.
pub fn hash_result(h: &mut Fnv, result: &QueryResult) {
    h.u64(result.group_arity as u64);
    for row in &result.rows {
        for cell in row {
            match cell {
                Value::Str(s) => h.bytes(s.as_bytes()),
                Value::Num(n) => h.u64(n.to_bits()),
            }
        }
        h.u64(u64::MAX);
    }
}

/// Bit-identity of two results (f64 cells compared by bits).
pub fn identical(a: &QueryResult, b: &QueryResult) -> bool {
    a.columns == b.columns
        && a.group_arity == b.group_arity
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| match (p, q) {
                    (Value::Str(s), Value::Str(t)) => s == t,
                    (Value::Num(m), Value::Num(n)) => m.to_bits() == n.to_bits(),
                    _ => false,
                })
        })
}

/// `nproc` as the standard library sees it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nanoseconds a fixed integer loop takes on this machine — a speed
/// reference to compare numbers from different machines by.
pub fn calibration_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..5 {
        let start = std::time::Instant::now();
        let mut x = 0x1234_5678_u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(
                x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i) ^ (x >> 17),
            );
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
