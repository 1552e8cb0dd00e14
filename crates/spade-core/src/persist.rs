//! Engine-state snapshots (the "Storage system (DFS)" box of the paper's
//! Fig. 4 architecture).
//!
//! In production the transaction graph and its peeling state outlive any
//! single process: Grab's pipeline loads the graph from a distributed file
//! system, and a restarted detector must resume **without** re-peeling
//! millions of vertices. A snapshot stores the graph (vertices, weights,
//! edges) *and* the peeling sequence with its weights, so
//! [`load_engine`] restores in O(|V| + |E|) straight into serving — no
//! static peel.
//!
//! Format: a small length-prefixed binary layout built on [`bytes`]
//! (magic + version header, little-endian fixed-width integers, `f64`
//! bits). Written via any `io::Write`, read via any `io::Read`.

use crate::engine::{SpadeConfig, SpadeEngine};
use crate::metric::DensityMetric;
use crate::peel::PeelingOutcome;
use crate::state::PeelingState;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use spade_graph::hash::{FxHashMap, FxHashSet};
use spade_graph::{DynamicGraph, GraphError, VertexId};
use std::io::{Read, Write};

/// Overflow-safe section length check: `count` records of `width` bytes
/// must fit in the remaining buffer (a crafted 64-bit count must fail
/// decoding, not wrap the multiplication and crash later).
fn check_section(
    buf: &Bytes,
    count: usize,
    width: usize,
    what: &'static str,
) -> Result<(), SnapshotError> {
    match count.checked_mul(width) {
        Some(need) if buf.remaining() >= need => Ok(()),
        _ => Err(SnapshotError::Corrupt(what)),
    }
}

/// Snapshot magic: "SPDE".
const MAGIC: u32 = 0x5350_4445;
/// Current snapshot format version.
const VERSION: u32 = 1;
/// Subgraph snapshot magic: "SPSG".
const SUBGRAPH_MAGIC: u32 = 0x5350_5347;
/// Current subgraph format version.
const SUBGRAPH_VERSION: u32 = 1;

/// Errors raised while decoding a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Wrong magic number (not a Spade snapshot).
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u32),
    /// Structurally invalid payload.
    Corrupt(&'static str),
    /// The decoded graph violated model invariants.
    Graph(GraphError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}: not a Spade snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Graph(e) => write!(f, "snapshot violates graph invariants: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<GraphError> for SnapshotError {
    fn from(e: GraphError) -> Self {
        SnapshotError::Graph(e)
    }
}

/// Serializes the engine's graph and peeling state into `writer`.
pub fn save_engine<M: DensityMetric, W: Write>(
    engine: &SpadeEngine<M>,
    mut writer: W,
) -> Result<(), SnapshotError> {
    let bytes = encode(engine.graph(), engine.state());
    writer.write_all(&bytes)?;
    writer.flush()?;
    Ok(())
}

/// Restores an engine from a snapshot, resuming incremental service
/// without a static peel. The metric is supplied by the caller (snapshots
/// carry data, not code).
pub fn load_engine<M: DensityMetric, R: Read>(
    metric: M,
    config: SpadeConfig,
    mut reader: R,
) -> Result<SpadeEngine<M>, SnapshotError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let (graph, state) = decode(Bytes::from(raw))?;
    Ok(SpadeEngine::from_parts(graph, state, metric, config))
}

fn encode(graph: &DynamicGraph, state: &PeelingState) -> Bytes {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let mut buf = BytesMut::with_capacity(24 + n * 8 + m * 20 + state.len() * 12);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(m as u64);
    for u in graph.vertices() {
        buf.put_f64_le(graph.vertex_weight(u));
    }
    for (src, dst, w) in graph.iter_edges() {
        buf.put_u32_le(src.0);
        buf.put_u32_le(dst.0);
        buf.put_f64_le(w);
    }
    // Peeling state, in physical (rank) order.
    buf.put_u64_le(state.len() as u64);
    for (&u, &d) in state.seq_phys().iter().zip(state.delta_phys()) {
        buf.put_u32_le(u.0);
        buf.put_f64_le(d);
    }
    buf.freeze()
}

fn decode(mut buf: Bytes) -> Result<(DynamicGraph, PeelingState), SnapshotError> {
    if buf.remaining() < 24 {
        return Err(SnapshotError::Corrupt("truncated header"));
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let n = buf.get_u64_le() as usize;
    let m = buf.get_u64_le() as usize;
    check_section(&buf, n, 8, "truncated vertex table")?;
    let mut graph = DynamicGraph::with_capacity(n);
    for _ in 0..n {
        graph.add_vertex(buf.get_f64_le())?;
    }
    // 4 (src) + 4 (dst) + 8 (weight) bytes per edge.
    check_section(&buf, m, 16, "truncated edge table")?;
    for _ in 0..m {
        let src = VertexId(buf.get_u32_le());
        let dst = VertexId(buf.get_u32_le());
        let w = buf.get_f64_le();
        graph.insert_edge(src, dst, w)?;
    }
    if buf.remaining() < 8 {
        return Err(SnapshotError::Corrupt("missing peeling state header"));
    }
    let len = buf.get_u64_le() as usize;
    if len != n {
        return Err(SnapshotError::Corrupt("peeling state does not cover the vertex set"));
    }
    check_section(&buf, len, 12, "truncated peeling state")?;
    // Rebuild via logical order (PeelingOutcome is logical-first).
    let mut order = Vec::with_capacity(len);
    let mut weights = Vec::with_capacity(len);
    for _ in 0..len {
        order.push(VertexId(buf.get_u32_le()));
        weights.push(buf.get_f64_le());
    }
    order.reverse();
    weights.reverse();
    for u in &order {
        if !graph.contains_vertex(*u) {
            return Err(SnapshotError::Corrupt("peeling state references unknown vertex"));
        }
    }
    let outcome = PeelingOutcome {
        order,
        weights,
        best_prefix: 0,
        best_density: 0.0,
        total_weight: graph.total_weight(),
    };
    let state = PeelingState::from_outcome(&outcome);
    if state.len() != graph.num_vertices() {
        return Err(SnapshotError::Corrupt("duplicate vertices in peeling state"));
    }
    Ok((graph, state))
}

/// A self-contained slice of a transaction graph: explicit (sparse,
/// global) vertex ids with their suspiciousness weights, plus every edge
/// of the induced subgraph.
///
/// Unlike the full-engine snapshot above — dense ids, peeling state
/// included — a subgraph carries no peeling state: the consumer re-peels
/// whatever union of subgraphs it assembles. This is the candidate-region
/// wire format of the cross-shard repair pass (`crate::shard::repair`),
/// and the natural state-handoff unit for a distributed backend: a shard
/// exports its detected community plus a k-hop frontier, the aggregator
/// replays the bytes into a scratch engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SubgraphSnapshot {
    /// Vertices as `(global id, vertex suspiciousness a_u)`, sorted by id.
    pub vertices: Vec<(VertexId, f64)>,
    /// Directed edges `(src, dst, accumulated suspiciousness)`; both
    /// endpoints are members of `vertices`.
    pub edges: Vec<(VertexId, VertexId, f64)>,
}

impl SubgraphSnapshot {
    /// Extracts the induced subgraph over `seeds` expanded by `hops`
    /// breadth-first steps (both edge directions): the vertex set is
    /// `seeds ∪ N^hops(seeds)`, the edge set is every edge of `graph`
    /// with both endpoints inside. `hops = 0` exports exactly the seeds'
    /// induced subgraph; each extra hop pulls in one ring of boundary
    /// structure so a repair union can stitch communities that only touch
    /// through frontier vertices.
    pub fn extract(graph: &DynamicGraph, seeds: &[VertexId], hops: usize) -> SubgraphSnapshot {
        let mut member: FxHashSet<u32> = FxHashSet::default();
        let mut frontier: Vec<VertexId> = Vec::new();
        for &s in seeds {
            if graph.contains_vertex(s) && member.insert(s.0) {
                frontier.push(s);
            }
        }
        let mut next: Vec<VertexId> = Vec::new();
        for _ in 0..hops {
            for &u in &frontier {
                for nb in graph.neighbors(u) {
                    if member.insert(nb.v.0) {
                        next.push(nb.v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
        }
        // Canonical order: sorted by id, so equal regions encode equal
        // bytes regardless of discovery order.
        let mut ids: Vec<u32> = member.iter().copied().collect();
        ids.sort_unstable();
        let mut vertices = Vec::with_capacity(ids.len());
        let mut edges = Vec::new();
        for &id in &ids {
            let u = VertexId(id);
            vertices.push((u, graph.vertex_weight(u)));
            for nb in graph.out_neighbors(u) {
                if member.contains(&nb.v.0) {
                    edges.push((u, nb.v, nb.w));
                }
            }
        }
        SubgraphSnapshot { vertices, edges }
    }

    /// `true` when the snapshot carries no structure worth shipping: no
    /// edges and no vertex with positive suspiciousness.
    pub fn is_trivial(&self) -> bool {
        self.edges.is_empty() && self.vertices.iter().all(|&(_, w)| w == 0.0)
    }

    /// Sum of all edge suspiciousness in the snapshot.
    pub fn edge_weight_total(&self) -> f64 {
        self.edges.iter().map(|&(_, _, w)| w).sum()
    }

    /// Drops zero-weight vertices that no edge touches. A dense-id
    /// engine materializes every vertex id below the largest one it has
    /// seen, so an extraction over a component's global member list
    /// includes members this shard never actually received an edge for —
    /// pruning them keeps migration slices (and the vertex tables the
    /// target engine grows) proportional to what the source shard really
    /// holds. Sorted order is preserved.
    pub fn prune_isolated(&mut self) {
        let mut touched: FxHashSet<u32> = FxHashSet::default();
        for &(src, dst, _) in &self.edges {
            touched.insert(src.0);
            touched.insert(dst.0);
        }
        self.vertices.retain(|&(u, w)| w > 0.0 || touched.contains(&u.0));
    }

    /// Serializes the subgraph with the same length-prefixed
    /// little-endian layout as the engine snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf =
            BytesMut::with_capacity(24 + self.vertices.len() * 12 + self.edges.len() * 16);
        buf.put_u32_le(SUBGRAPH_MAGIC);
        buf.put_u32_le(SUBGRAPH_VERSION);
        buf.put_u64_le(self.vertices.len() as u64);
        buf.put_u64_le(self.edges.len() as u64);
        for &(u, w) in &self.vertices {
            buf.put_u32_le(u.0);
            buf.put_f64_le(w);
        }
        for &(src, dst, w) in &self.edges {
            buf.put_u32_le(src.0);
            buf.put_u32_le(dst.0);
            buf.put_f64_le(w);
        }
        buf.freeze().to_vec()
    }

    /// Decodes a subgraph produced by [`encode`](Self::encode), verifying
    /// structure: magic/version, section lengths, id order, and that every
    /// edge endpoint is a member vertex.
    pub fn decode(raw: &[u8]) -> Result<SubgraphSnapshot, SnapshotError> {
        let mut buf = Bytes::from(raw);
        if buf.remaining() < 24 {
            return Err(SnapshotError::Corrupt("truncated subgraph header"));
        }
        let magic = buf.get_u32_le();
        if magic != SUBGRAPH_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = buf.get_u32_le();
        if version != SUBGRAPH_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let n = buf.get_u64_le() as usize;
        let m = buf.get_u64_le() as usize;
        check_section(&buf, n, 12, "truncated subgraph vertex table")?;
        let mut vertices = Vec::with_capacity(n);
        let mut member: FxHashSet<u32> = FxHashSet::default();
        let mut last: Option<u32> = None;
        for _ in 0..n {
            let id = buf.get_u32_le();
            let w = buf.get_f64_le();
            if last.is_some_and(|prev| prev >= id) {
                return Err(SnapshotError::Corrupt("subgraph vertices out of order"));
            }
            last = Some(id);
            member.insert(id);
            vertices.push((VertexId(id), w));
        }
        check_section(&buf, m, 16, "truncated subgraph edge table")?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let src = buf.get_u32_le();
            let dst = buf.get_u32_le();
            let w = buf.get_f64_le();
            if !member.contains(&src) || !member.contains(&dst) {
                return Err(SnapshotError::Corrupt("subgraph edge references unknown vertex"));
            }
            edges.push((VertexId(src), VertexId(dst), w));
        }
        Ok(SubgraphSnapshot { vertices, edges })
    }

    /// Replays the subgraph into a fresh [`DynamicGraph`] with **dense**
    /// local ids (position in `remap` = local id, value = global id),
    /// ready for a scratch re-peel. Weights are installed verbatim — they
    /// are already final suspiciousness values, so no metric runs.
    pub fn replay(&self, remap: &mut Vec<VertexId>) -> Result<DynamicGraph, SnapshotError> {
        remap.clear();
        let mut local: FxHashMap<u32, u32> = FxHashMap::default();
        let mut graph = DynamicGraph::with_capacity(self.vertices.len());
        for &(u, w) in &self.vertices {
            local.insert(u.0, remap.len() as u32);
            remap.push(u);
            graph.add_vertex(w)?;
        }
        for &(src, dst, w) in &self.edges {
            let (Some(&s), Some(&d)) = (local.get(&src.0), local.get(&dst.0)) else {
                return Err(SnapshotError::Corrupt("subgraph edge references unknown vertex"));
            };
            graph.insert_edge(VertexId(s), VertexId(d), w)?;
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::WeightedDensity;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn build_engine() -> SpadeEngine<WeightedDensity> {
        // Deliberately edge-heavy relative to the vertex count so the
        // decoder's per-section length checks are exercised with no slack
        // from later sections.
        let mut e = SpadeEngine::new(WeightedDensity);
        for a in 0..24u32 {
            for b in 0..24u32 {
                if a != b {
                    e.insert_edge(v(a), v(b), (a + b + 1) as f64).unwrap();
                }
            }
        }
        e.insert_edge(v(30), v(2), 3.5).unwrap();
        e
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let original = build_engine();
        let det_before = original.detect();
        let mut bytes = Vec::new();
        save_engine(&original, &mut bytes).unwrap();

        let restored =
            load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice()).unwrap();
        assert_eq!(restored.graph().num_vertices(), original.graph().num_vertices());
        assert_eq!(restored.graph().num_edges(), original.graph().num_edges());
        assert_eq!(restored.state().logical_order(), original.state().logical_order());
        let det_after = restored.detect();
        assert_eq!(det_before.size, det_after.size);
        assert!((det_before.density - det_after.density).abs() < 1e-12);
        restored.state().validate_greedy(restored.graph(), 1e-9);
    }

    #[test]
    fn restored_engine_keeps_streaming_incrementally() {
        let original = build_engine();
        let mut bytes = Vec::new();
        save_engine(&original, &mut bytes).unwrap();
        let mut restored =
            load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice()).unwrap();
        restored.insert_edge(v(8), v(9), 42.0).unwrap();
        restored.delete_edge(v(7), v(2)).unwrap();
        assert_eq!(restored.state().logical_order(), crate::peel::peel(restored.graph()).order);
    }

    #[test]
    fn rejects_garbage() {
        let garbage = vec![0u8; 64];
        let err = load_engine(WeightedDensity, SpadeConfig::default(), garbage.as_slice());
        assert!(matches!(err, Err(SnapshotError::BadMagic(_))));

        let mut short = Vec::new();
        save_engine(&build_engine(), &mut short).unwrap();
        short.truncate(short.len() - 10);
        let err = load_engine(WeightedDensity, SpadeConfig::default(), short.as_slice());
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = Vec::new();
        save_engine(&build_engine(), &mut bytes).unwrap();
        bytes[4] = 99; // clobber version
        let err = load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice());
        assert!(matches!(err, Err(SnapshotError::BadVersion(99))));
    }

    #[test]
    fn empty_engine_roundtrip() {
        let original: SpadeEngine<WeightedDensity> = SpadeEngine::new(WeightedDensity);
        let mut bytes = Vec::new();
        save_engine(&original, &mut bytes).unwrap();
        let restored =
            load_engine(WeightedDensity, SpadeConfig::default(), bytes.as_slice()).unwrap();
        assert_eq!(restored.detect(), crate::state::Detection::EMPTY);
    }

    /// A path 0-1-2-3 plus a detached heavy pair (8, 9).
    fn region_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new();
        g.ensure_vertex(v(9));
        for i in 0..4u32 {
            g.set_vertex_weight(v(i), 0.5 * i as f64).unwrap();
        }
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        g.insert_edge(v(1), v(2), 2.0).unwrap();
        g.insert_edge(v(2), v(3), 3.0).unwrap();
        g.insert_edge(v(8), v(9), 50.0).unwrap();
        g
    }

    #[test]
    fn subgraph_extract_respects_hop_budget() {
        let g = region_graph();
        let zero = SubgraphSnapshot::extract(&g, &[v(1)], 0);
        assert_eq!(zero.vertices.len(), 1);
        assert!(zero.edges.is_empty());

        let one = SubgraphSnapshot::extract(&g, &[v(1)], 1);
        let ids: Vec<u32> = one.vertices.iter().map(|&(u, _)| u.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(one.edges.len(), 2, "induced edges of {{0,1,2}}");

        let two = SubgraphSnapshot::extract(&g, &[v(1)], 2);
        let ids: Vec<u32> = two.vertices.iter().map(|&(u, _)| u.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(two.edges.len(), 3);
        // The detached pair never enters any hop expansion of vertex 1.
        assert!(two.vertices.iter().all(|&(u, _)| u.0 < 8));
    }

    #[test]
    fn subgraph_snapshot_roundtrip_is_exact() {
        let g = region_graph();
        let snap = SubgraphSnapshot::extract(&g, &[v(1), v(8)], 1);
        let decoded = SubgraphSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        // Vertex weights and edge weights survive bit-exactly.
        assert!(decoded.vertices.iter().any(|&(u, w)| u == v(1) && w == 0.5));
        assert!(decoded.edges.iter().any(|&(s, d, w)| s == v(8) && d == v(9) && w == 50.0));
    }

    #[test]
    fn subgraph_replay_builds_a_dense_scratch_graph() {
        let g = region_graph();
        let snap = SubgraphSnapshot::extract(&g, &[v(8)], 1);
        let mut remap = Vec::new();
        let scratch = snap.replay(&mut remap).unwrap();
        // Global ids 8 and 9 become local 0 and 1 — no 10-vertex blowup.
        assert_eq!(scratch.num_vertices(), 2);
        assert_eq!(remap, vec![v(8), v(9)]);
        assert_eq!(scratch.num_edges(), 1);
        assert_eq!(scratch.edge_weight(VertexId(0), VertexId(1)), Some(50.0));
        // A re-peel of the replayed slice sees the right density.
        let out = crate::peel::peel(&scratch);
        assert!((out.best_density - 25.0).abs() < 1e-12);
    }

    #[test]
    fn prune_isolated_keeps_weighted_and_connected_vertices() {
        let g = region_graph();
        // Seeds include 5..8: vertex 5 is isolated *and* zero-weight in
        // the region graph (materialized by ensure_vertex), so it must be
        // pruned; 8 keeps its edge, 0..3 keep weights or edges.
        let mut snap =
            SubgraphSnapshot::extract(&g, &[v(0), v(1), v(2), v(3), v(5), v(8), v(9)], 0);
        assert!(snap.vertices.iter().any(|&(u, _)| u == v(5)));
        snap.prune_isolated();
        let ids: Vec<u32> = snap.vertices.iter().map(|&(u, _)| u.0).collect();
        // 0 has weight 0.0 but carries an edge; 1..3 have weights; 5 is
        // dropped; 8 and 9 carry the heavy edge.
        assert_eq!(ids, vec![0, 1, 2, 3, 8, 9]);
        // Roundtrip still validates after pruning.
        let decoded = SubgraphSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert!(!snap.is_trivial());
        assert!((snap.edge_weight_total() - 56.0).abs() < 1e-12);

        let mut empty = SubgraphSnapshot::extract(&g, &[v(5)], 0);
        empty.prune_isolated();
        assert!(empty.vertices.is_empty());
        assert!(empty.is_trivial());
    }

    #[test]
    fn subgraph_decode_rejects_malformed_bytes() {
        let g = region_graph();
        let snap = SubgraphSnapshot::extract(&g, &[v(1)], 1);
        let bytes = snap.encode();

        let err = SubgraphSnapshot::decode(&bytes[..bytes.len() - 4]);
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(SubgraphSnapshot::decode(&wrong_magic), Err(SnapshotError::BadMagic(_))));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            SubgraphSnapshot::decode(&wrong_version),
            Err(SnapshotError::BadVersion(99))
        ));

        // An edge referencing a vertex outside the member table: corrupt
        // the src id of the first edge (offset: header 24 + 3 vertices
        // of 12 bytes).
        let mut dangling = bytes.clone();
        let edge_off = 24 + 3 * 12;
        dangling[edge_off..edge_off + 4].copy_from_slice(&77u32.to_le_bytes());
        assert!(matches!(SubgraphSnapshot::decode(&dangling), Err(SnapshotError::Corrupt(_))));

        // A crafted vertex count whose byte-size multiplication wraps
        // must fail the section check, not crash on allocation.
        let mut huge_count = bytes.clone();
        huge_count[8..16].copy_from_slice(&0x4000_0000_0000_0001u64.to_le_bytes());
        assert!(matches!(SubgraphSnapshot::decode(&huge_count), Err(SnapshotError::Corrupt(_))));
    }
}
