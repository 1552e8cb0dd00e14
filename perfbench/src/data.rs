//! Inputs and reference answers.
//!
//! Every workload replays the Grab1 surrogate of `spade-gen` (Table 3,
//! the paper's 90/10 protocol: the first 90% of transactions form the
//! initial graph, the last 10% are the increments) under DW, the
//! weighted-density metric. The run's `--seed` seeds the generator; the
//! program under test sees only the generated edges.

use spade_core::shard::PartitionStrategy;
use spade_core::{SpadeConfig, SpadeEngine, WeightedDensity};
use spade_gen::{Dataset, DatasetSpec};
use spade_graph::VertexId;

/// A raw transaction as the APIs take it: (source, destination, amount).
pub type Edge = (VertexId, VertexId, f64);

/// The Grab1 surrogate at `scale` of the paper's size.
pub fn grab1(scale: f64, seed: u64) -> Dataset {
    let spec = DatasetSpec::table3().into_iter().find(|s| s.name == "Grab1").expect("Grab1 row");
    spec.generate(scale, seed)
}

/// The generator seed of round `round` of a run seeded with `seed`.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round)
}

pub fn edges(stream: &[spade_core::StreamEdge]) -> Vec<Edge> {
    stream.iter().map(|e| (e.src, e.dst, e.raw)).collect()
}

/// The whole stream: the prefix followed by the increments.
pub fn all_edges(d: &Dataset) -> Vec<Edge> {
    d.initial.iter().chain(&d.increments).map(|e| (e.src, e.dst, e.raw)).collect()
}

/// Splits `edges` by the shard hash-by-source routing sends each one to,
/// keeping stream order within a shard.
pub fn hash_parts(edges: &[Edge], shards: usize) -> Vec<Vec<Edge>> {
    let mut route = PartitionStrategy::HashBySource.build();
    let mut parts = vec![Vec::new(); shards];
    for &(src, dst, w) in edges {
        parts[route.route(src, dst, shards)].push((src, dst, w));
    }
    parts
}

/// Sparse-id scatter: a fixed bijection of `[0, 16·id_space)` onto
/// itself, `v ↦ (a·v + b) mod m` with `a` odd and coprime to `m`, so the
/// surrogate's dense ids land spread over sixteen times their count.
pub fn scatter(edges: &[Edge], id_space: usize) -> Vec<Edge> {
    let m = 16 * id_space.max(1) as u64;
    let mut a = (0x9E37_79B1 % m) | 1;
    while gcd(a, m) != 1 {
        a += 2;
    }
    let b = 0x5DEE_CE66 % m;
    let map = |v: VertexId| VertexId(((u64::from(v.0) * a + b) % m) as u32);
    edges.iter().map(|&(s, d, w)| (map(s), map(d), w)).collect()
}

fn gcd(mut x: u64, mut y: u64) -> u64 {
    while y != 0 {
        (x, y) = (y, x % y);
    }
    x
}

/// A detection reduced to what exactness compares.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub members: Vec<u32>,
    pub density: f64,
}

impl Answer {
    pub fn new(members: &[VertexId], density: f64) -> Answer {
        let mut members: Vec<u32> = members.iter().map(|v| v.0).collect();
        members.sort_unstable();
        Answer { members, density }
    }

    /// Same members, and densities equal to a relative 1e-9 (float
    /// summation order differs between incremental and static peels).
    pub fn matches(&self, want: &Answer) -> bool {
        self.members == want.members
            && (self.density - want.density).abs() <= 1e-9 * want.density.abs().max(1.0)
    }

    pub fn describe(&self) -> String {
        format!("{} members at density {:.6}", self.members.len(), self.density)
    }
}

/// The solo engine's answer over `edges`: one engine fed every edge.
/// Bootstrapping runs one static peel, which the incremental engine is
/// exact against, so this is the ground truth for every sharded path.
pub fn solo(edges: &[Edge]) -> Answer {
    let mut engine =
        SpadeEngine::bootstrap(WeightedDensity, SpadeConfig::default(), edges.iter().copied())
            .expect("generated edges are well formed");
    let det = engine.detect();
    Answer::new(engine.community(det), det.density)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_injective_and_spreads_ids() {
        let e: Vec<Edge> = (0..1000u32).map(|i| (VertexId(i), VertexId(i + 1), 1.0)).collect();
        let s = scatter(&e, 1001);
        let mut ids: Vec<u32> = s.iter().flat_map(|&(a, b, _)| [a.0, b.0]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1001);
        assert!(*ids.last().unwrap() > 8 * 1001);
    }
}
