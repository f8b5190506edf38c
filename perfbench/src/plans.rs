//! Seeded SQL plan generators.
//!
//! The seed picks every literal (months, states, buckets, which sample row
//! a point query names); the *shape* of each slot in a workload is fixed.
//! That keeps the latency mix the same across seeds while the inputs
//! change with them.

use crate::rng::SplitMix;
use crate::world::TABLE;
use std::collections::BTreeSet;
use themis_data::{AttrId, Relation};

/// Query shapes, each routed one way by the §4.3 router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Scalar aggregate over a range, an IN list or a filtered AVG: sample
    /// route.
    Scalar,
    /// `COUNT(*)` pinned to a tuple present in the sample: sample route.
    PointIn,
    /// `COUNT(*)` pinned to a tuple absent from the sample: BN inference.
    PointOut,
    /// 1-D `GROUP BY` with a `WHERE`: hybrid.
    Group1,
    /// 2-D `GROUP BY` with `WHERE`, `AVG`, `ORDER BY` and `LIMIT`: hybrid.
    Group2,
    /// 3-D `GROUP BY`: hybrid, ~1 000 groups.
    Group3,
}

/// Generates plans over the flights schema from one seeded stream.
pub struct PlanGen<'a> {
    sample: &'a Relation,
    rng: SplitMix,
}

const ATTRS: [&str; 5] = [
    "fl_date",
    "origin_state",
    "dest_state",
    "elapsed_time",
    "distance",
];

/// Attribute triples a point query pins (all ten of the five attributes).
const POINT_TRIPLES: [[usize; 3]; 10] = [
    [0, 1, 2],
    [0, 1, 3],
    [0, 1, 4],
    [0, 2, 3],
    [0, 2, 4],
    [0, 3, 4],
    [1, 2, 3],
    [1, 2, 4],
    [1, 3, 4],
    [2, 3, 4],
];

/// (group, filter) attribute pairs of 1-D groups: all twenty ordered pairs.
const GROUP1_PAIRS: [(usize, usize); 20] = [
    (0, 1),
    (1, 0),
    (2, 3),
    (3, 2),
    (4, 0),
    (0, 2),
    (2, 0),
    (1, 3),
    (3, 1),
    (4, 1),
    (0, 3),
    (3, 0),
    (1, 4),
    (4, 2),
    (2, 1),
    (0, 4),
    (4, 3),
    (2, 4),
    (3, 4),
    (1, 2),
];

/// (group, group, filter, averaged) attributes of 2-D groups.
const GROUP2_TEMPLATES: [(usize, usize, usize, usize); 5] = [
    (1, 2, 0, 4),
    (0, 1, 4, 3),
    (0, 2, 3, 4),
    (3, 4, 1, 0),
    (1, 4, 0, 3),
];

impl<'a> PlanGen<'a> {
    pub fn new(sample: &'a Relation, rng: SplitMix) -> PlanGen<'a> {
        PlanGen { sample, rng }
    }

    fn label(&self, attr: usize, id: u32) -> String {
        self.sample
            .schema()
            .domain(AttrId(attr))
            .label(id)
            .to_string()
    }

    fn random_label(&mut self, attr: usize) -> String {
        let size = self.sample.schema().domain(AttrId(attr)).size();
        let id = self.rng.below(size) as u32;
        self.label(attr, id)
    }

    /// `k` distinct labels of `attr`, sorted, quoted and comma-separated.
    fn label_list(&mut self, attr: usize, k: usize) -> String {
        let mut picked = BTreeSet::new();
        while picked.len() < k {
            picked.insert(self.random_label(attr));
        }
        picked
            .into_iter()
            .map(|l| format!("'{l}'"))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The plan of `shape` in template `variant`. The variant fixes which
    /// attributes the plan groups, filters and aggregates on; the seeded
    /// stream picks its literals.
    pub fn plan(&mut self, shape: Shape, variant: usize) -> String {
        match shape {
            Shape::Scalar => match variant % 3 {
                0 => {
                    let lo = self.rng.below(11);
                    let hi = lo + 1 + self.rng.below(11 - lo);
                    format!(
                        "SELECT COUNT(*) FROM {TABLE} WHERE distance >= {lo} AND distance <= {hi}"
                    )
                }
                1 => {
                    let attr = 1 + (variant / 3) % 2;
                    let list = self.label_list(attr, 3);
                    format!(
                        "SELECT COUNT(*) FROM {TABLE} WHERE {} IN ({list})",
                        ATTRS[attr]
                    )
                }
                _ => {
                    let avg = 3 + (variant / 3) % 2;
                    format!(
                        "SELECT AVG({}) FROM {TABLE} WHERE fl_date = '{}' AND origin_state = '{}'",
                        ATTRS[avg],
                        self.random_label(0),
                        self.random_label(1)
                    )
                }
            },
            Shape::PointIn => {
                let row = self.rng.below(self.sample.len());
                let preds: Vec<String> = POINT_TRIPLES[variant % POINT_TRIPLES.len()]
                    .iter()
                    .map(|&x| {
                        let id = self.sample.value(row, AttrId(x));
                        format!("{} = '{}'", ATTRS[x], self.label(x, id))
                    })
                    .collect();
                format!("SELECT COUNT(*) FROM {TABLE} WHERE {}", preds.join(" AND "))
            }
            Shape::PointOut => loop {
                let attrs = [0usize, 1, 2, 4];
                let ids: Vec<u32> = attrs
                    .iter()
                    .map(|&x| {
                        let size = self.sample.schema().domain(AttrId(x)).size();
                        self.rng.below(size) as u32
                    })
                    .collect();
                let attr_ids: Vec<AttrId> = attrs.iter().map(|&x| AttrId(x)).collect();
                if self.sample.contains_point(&attr_ids, &ids) {
                    continue;
                }
                let preds: Vec<String> = attrs
                    .iter()
                    .zip(&ids)
                    .map(|(&x, &id)| format!("{} = '{}'", ATTRS[x], self.label(x, id)))
                    .collect();
                break format!("SELECT COUNT(*) FROM {TABLE} WHERE {}", preds.join(" AND "));
            },
            Shape::Group1 => {
                let (g, f) = GROUP1_PAIRS[variant % GROUP1_PAIRS.len()];
                let v = self.random_label(f);
                format!(
                    "SELECT {g}, COUNT(*) AS n FROM {TABLE} WHERE {f} = '{v}' GROUP BY {g}",
                    g = ATTRS[g],
                    f = ATTRS[f]
                )
            }
            Shape::Group2 => {
                let (g1, g2, f, avg) = GROUP2_TEMPLATES[variant % GROUP2_TEMPLATES.len()];
                let list = self.label_list(f, 3);
                format!(
                    "SELECT {g1}, {g2}, COUNT(*) AS n, AVG({a}) AS mean FROM {TABLE} \
                     WHERE {f} IN ({list}) GROUP BY {g1}, {g2} ORDER BY n DESC LIMIT 25",
                    g1 = ATTRS[g1],
                    g2 = ATTRS[g2],
                    a = ATTRS[avg],
                    f = ATTRS[f]
                )
            }
            Shape::Group3 => format!(
                "SELECT fl_date, origin_state, dest_state, COUNT(*) AS n FROM {TABLE} \
                 WHERE distance <> {} GROUP BY fl_date, origin_state, dest_state",
                self.rng.below(12)
            ),
        }
    }

    /// A plan of `shape` and `variant` not in `seen` (which it joins).
    pub fn distinct(
        &mut self,
        shape: Shape,
        variant: usize,
        seen: &mut BTreeSet<String>,
    ) -> String {
        for _ in 0..10_000 {
            let p = self.plan(shape, variant);
            if seen.insert(p.clone()) {
                return p;
            }
        }
        panic!("cannot draw a new {shape:?} plan of variant {variant}");
    }

    pub fn rng(&mut self) -> &mut SplitMix {
        &mut self.rng
    }
}

/// One 20-query block of `olap_hybrid`: 8 cheap scalar/point queries (40%),
/// 6 1-D groups (30%, so the median falls inside this class), 5 2-D groups
/// (25%) and one 3-D group (5%, so the p99 falls inside this class).
pub const OLAP_BLOCK: [(Shape, usize); 6] = [
    (Shape::Scalar, 3),
    (Shape::PointIn, 3),
    (Shape::PointOut, 2),
    (Shape::Group1, 6),
    (Shape::Group2, 5),
    (Shape::Group3, 1),
];

/// The `olap_hybrid` stream: `blocks` blocks, each shuffled.
pub fn olap_stream(gen: &mut PlanGen, blocks: usize) -> Vec<(Shape, String)> {
    let mut stream = Vec::new();
    for b in 0..blocks {
        let mut block: Vec<(Shape, String)> = OLAP_BLOCK
            .iter()
            .flat_map(|&(shape, n)| (0..n).map(move |j| (shape, b * n + j)))
            .map(|(shape, variant)| (shape, gen.plan(shape, variant)))
            .collect();
        gen.rng().shuffle(&mut block);
        stream.extend(block);
    }
    stream
}

/// The `wire_zipf` plans, indexed by popularity rank. The shapes repeat
/// down the ranks in a fixed cycle of eight, so every popularity band holds
/// the same mix whatever the seed. One in eight is a 1-D group: with about
/// two thirds of requests hitting the cache, cheap hits are then ~59% of
/// all requests and the median lies among them, off the step up to
/// grouped answers and misses.
pub fn wire_plans(gen: &mut PlanGen, n: usize) -> Vec<String> {
    const CYCLE: [Shape; 8] = [
        Shape::Scalar,
        Shape::PointIn,
        Shape::PointOut,
        Shape::Group1,
        Shape::Scalar,
        Shape::PointIn,
        Shape::PointOut,
        Shape::Scalar,
    ];
    let mut seen = BTreeSet::new();
    (0..n)
        .map(|rank| gen.distinct(CYCLE[rank % CYCLE.len()], rank / CYCLE.len(), &mut seen))
        .collect()
}

/// The eight timed `ingest_stream` plans. The first is a grouped (hybrid)
/// query, so the first answer after an ingest is a hybrid one. Six of the
/// eight are hybrid, so the median post-ingest latency falls inside that
/// class rather than on the step between cheap and grouped queries.
pub const INGEST_SHAPES: [Shape; 8] = [
    Shape::Group1,
    Shape::Scalar,
    Shape::Group1,
    Shape::Group1,
    Shape::PointOut,
    Shape::Group2,
    Shape::Group1,
    Shape::Group1,
];

/// Plans whose error `ingest_stream` reports after its last round: the
/// eight timed plans first, then more of the cheap shapes and 2-D groups,
/// so the mean rests on enough queries to be steady.
pub fn ingest_plans(gen: &mut PlanGen, evaluated: usize) -> Vec<String> {
    const MORE: [Shape; 5] = [
        Shape::Scalar,
        Shape::PointIn,
        Shape::PointOut,
        Shape::Group1,
        Shape::Group2,
    ];
    let mut seen = BTreeSet::new();
    let timed = INGEST_SHAPES.iter().enumerate().map(|(i, &s)| (s, i));
    let more = (0..evaluated.saturating_sub(INGEST_SHAPES.len())).map(|i| (MORE[i % 5], 8 + i / 5));
    timed
        .chain(more)
        .map(|(s, v)| gen.distinct(s, v, &mut seen))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Inputs;

    fn sample() -> Relation {
        // A small population is enough to exercise the generators.
        let ds = themis_data::datasets::flights::FlightsDataset::generate(
            themis_data::datasets::flights::FlightsConfig {
                n: 3_000,
                ..Default::default()
            },
        );
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(1);
        ds.sample_june(&mut rng)
    }

    #[test]
    fn generators_are_identical_for_a_seed() {
        let s = sample();
        let olap = |seed| olap_stream(&mut PlanGen::new(&s, SplitMix::new(seed)), 3);
        let a = olap(5);
        assert_eq!(a, olap(5));
        assert_ne!(a, olap(6));
        assert_eq!(a.len(), 60);
        let wire = |seed| wire_plans(&mut PlanGen::new(&s, SplitMix::new(seed)), 64);
        let w = wire(5);
        assert_eq!(w, wire(5));
        assert_eq!(
            w.iter().collect::<BTreeSet<_>>().len(),
            64,
            "wire plans are distinct"
        );
        let ingest = |seed| ingest_plans(&mut PlanGen::new(&s, SplitMix::new(seed)), 64);
        let i = ingest(5);
        assert_eq!(i, ingest(5));
        assert_eq!(
            i.iter().collect::<BTreeSet<_>>().len(),
            64,
            "ingest plans are distinct"
        );
    }

    #[test]
    fn every_block_keeps_the_shape_mix() {
        let s = sample();
        let stream = olap_stream(&mut PlanGen::new(&s, SplitMix::new(9)), 4);
        for block in stream.chunks(20) {
            for (shape, n) in OLAP_BLOCK {
                assert_eq!(block.iter().filter(|(s, _)| *s == shape).count(), n);
            }
        }
    }

    #[test]
    fn plans_parse_and_route_as_their_shape_says() {
        let inputs = Inputs::generate(3);
        let model = inputs.build();
        let session = themis_core::ThemisSession::new(model);
        let mut gen = PlanGen::new(&inputs.sample, SplitMix::new(4));
        for shape in [
            Shape::Scalar,
            Shape::PointIn,
            Shape::PointOut,
            Shape::Group1,
            Shape::Group2,
            Shape::Group3,
        ] {
            for variant in 0..20 {
                let sql = gen.plan(shape, variant);
                let explain = session
                    .explain(&sql)
                    .unwrap_or_else(|e| panic!("{sql}: {e}"));
                let expected = match shape {
                    Shape::Scalar | Shape::PointIn => themis_core::RouteKind::Sample,
                    Shape::PointOut => themis_core::RouteKind::BayesNet,
                    _ => themis_core::RouteKind::Hybrid,
                };
                assert_eq!(explain.route, expected, "{sql}");
            }
        }
    }
}
