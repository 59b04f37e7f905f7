//! Deterministic partitioning of parameter-sweep grids into shard-affine
//! chunks — the planning half of the distributed sweep coordinator.
//!
//! A sweep grid is the cross product of one or more named dimensions
//! ([`GridSpec`]); every point has a stable index in row-major order
//! (last dimension fastest). [`ChunkPlan::plan`] splits those indices
//! into chunks and assigns each chunk to a shard:
//!
//! * [`Assignment::MemoAffine`] routes every *point* by a stable 64-bit
//!   fingerprint of the memo-relevant work it would evaluate (see
//!   [`crate::workflow::memo_fingerprint`]): points that share pattern
//!   evaluations land on the same shard, so each shard's striped memo
//!   cache stays hot and the shards' working sets stay disjoint. This is
//!   the distributed sweep's perf win — cache affinity, not just cores.
//! * [`Assignment::RoundRobin`] deals contiguous index runs to shards in
//!   turn — the baseline the memo-affinity benchmarks compare against.
//!
//! Both assignments are pure functions of `(grid, shards, chunk_points,
//! fingerprints)`: replanning the same sweep reproduces the same
//! chunk→shard map, which is what lets a rerun replay completed chunks
//! against still-warm shard caches. Chunk results merge back by grid
//! index, so the merged row order — and therefore the rendered output —
//! is byte-identical to a local sweep regardless of shard count, chunk
//! size, or completion order.
//!
//! The hashes here ([`StableHasher`], [`mix64`]) are fixed algorithms
//! (FNV-1a and the SplitMix64 finalizer), *not* [`std::hash::RandomState`]:
//! shard routing must agree across processes and runs.

/// Incremental FNV-1a over 64-bit words: a fixed, portable hash for
/// shard routing (deliberately not `RandomState`, which is seeded per
/// process and would reshuffle chunk→shard maps between runs).
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Fold one 64-bit word (little-endian byte order) into the state.
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.state ^= byte as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// SplitMix64 finalizer: full-avalanche mixing so `mix64(h) % shards`
/// uses all input bits (FNV-1a alone has weak low-bit diffusion).
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One hash of a word slice (FNV-1a fold, see [`StableHasher`]).
pub fn hash_words(words: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    for &w in words {
        h.write(w);
    }
    h.finish()
}

/// A sweep grid: the cross product of named dimensions, each a list of
/// values in sweep order. Point indices are row-major with the *last*
/// dimension fastest, matching nested `for` loops over the dimensions in
/// declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    dims: Vec<(String, Vec<f64>)>,
}

impl GridSpec {
    /// Build a grid from `(name, values)` dimensions. Rejects an empty
    /// dimension list, a dimension with no values, a duplicated name,
    /// and cross products that overflow `usize`.
    pub fn new(dims: Vec<(String, Vec<f64>)>) -> Result<Self, String> {
        if dims.is_empty() {
            return Err("a sweep grid needs at least one dimension".to_owned());
        }
        let mut total: usize = 1;
        for (i, (name, values)) in dims.iter().enumerate() {
            if values.is_empty() {
                return Err(format!("sweep dimension `{name}` has no values"));
            }
            if dims[..i].iter().any(|(n, _)| n == name) {
                return Err(format!("sweep dimension `{name}` given twice"));
            }
            total = total
                .checked_mul(values.len())
                .ok_or_else(|| "sweep grid size overflows usize".to_owned())?;
        }
        Ok(Self { dims })
    }

    /// Number of grid points (product of dimension sizes).
    pub fn len(&self) -> usize {
        self.dims.iter().map(|(_, v)| v.len()).product()
    }

    /// Whether the grid has no points (never true for a constructed grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimension names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.dims.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The dimensions themselves, in declaration order.
    pub fn dims(&self) -> &[(String, Vec<f64>)] {
        &self.dims
    }

    /// Coordinates of point `idx` (row-major, last dimension fastest),
    /// one value per dimension in declaration order.
    pub fn point(&self, idx: usize) -> Vec<f64> {
        debug_assert!(idx < self.len());
        let mut coords = vec![0.0; self.dims.len()];
        let mut rest = idx;
        for (slot, (_, values)) in self.dims.iter().enumerate().rev() {
            coords[slot] = values[rest % values.len()];
            rest /= values.len();
        }
        coords
    }
}

/// How chunks map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Route each point by its stable memo fingerprint: points sharing
    /// pattern evaluations co-locate, keeping each shard's memo cache
    /// hot and disjoint.
    MemoAffine,
    /// Deal contiguous index runs to shards in turn — the affinity-blind
    /// baseline.
    RoundRobin,
}

impl Assignment {
    /// Parse a CLI spelling (`affine` / `round-robin`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "affine" | "memo-affine" => Some(Self::MemoAffine),
            "round-robin" | "rr" => Some(Self::RoundRobin),
            _ => None,
        }
    }

    /// Canonical spelling (the one `parse` accepts first).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::MemoAffine => "affine",
            Self::RoundRobin => "round-robin",
        }
    }
}

/// One unit of distributable work: a set of grid-point indices bound for
/// one shard. Indices are ascending, so a chunk's rows merge back into
/// the grid by simple index addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Chunk id, dense `0..plan.chunks.len()` in planning order.
    pub id: usize,
    /// Home shard (`0..plan.shards`); failover may execute the chunk
    /// elsewhere, but the *plan* is what reruns reproduce.
    pub shard: usize,
    /// Ascending grid-point indices.
    pub indices: Vec<usize>,
}

/// A complete, deterministic partition of a grid into shard-assigned
/// chunks (the coordinator's manifest).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPlan {
    /// Number of shards planned for.
    pub shards: usize,
    /// Requested chunk size ceiling (points per chunk).
    pub chunk_points: usize,
    /// Assignment strategy used.
    pub assignment: Assignment,
    /// Total grid points covered (sum of chunk sizes).
    pub total_points: usize,
    /// The chunks, id order.
    pub chunks: Vec<Chunk>,
}

impl ChunkPlan {
    /// Partition `grid` into chunks of at most `chunk_points` points
    /// across `shards` shards.
    ///
    /// `fingerprint(idx)` supplies the stable memo fingerprint of grid
    /// point `idx`; it is only called for [`Assignment::MemoAffine`],
    /// once per point, from up to one thread per core (each call
    /// resolves a point, which dominates planning). The plan is a pure
    /// function of its inputs: same grid + same fingerprints → same chunk
    /// ids, contents, and shard homes.
    pub fn plan(
        grid: &GridSpec,
        shards: usize,
        chunk_points: usize,
        assignment: Assignment,
        fingerprint: impl Fn(usize) -> u64 + Sync,
    ) -> Self {
        let shards = shards.max(1);
        let chunk_points = chunk_points.max(1);
        let n = grid.len();
        let mut chunks = Vec::new();
        match assignment {
            Assignment::MemoAffine => {
                let indices: Vec<usize> = (0..n).collect();
                let fingerprints = crate::sweep::par_map(&indices, |&idx| fingerprint(idx));
                let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
                for (idx, fp) in fingerprints.into_iter().enumerate() {
                    let shard = (mix64(fp) % shards as u64) as usize;
                    per_shard[shard].push(idx);
                }
                for (shard, indices) in per_shard.into_iter().enumerate() {
                    for run in indices.chunks(chunk_points) {
                        chunks.push(Chunk {
                            id: chunks.len(),
                            shard,
                            indices: run.to_vec(),
                        });
                    }
                }
            }
            Assignment::RoundRobin => {
                let all: Vec<usize> = (0..n).collect();
                for run in all.chunks(chunk_points) {
                    chunks.push(Chunk {
                        id: chunks.len(),
                        shard: chunks.len() % shards,
                        indices: run.to_vec(),
                    });
                }
            }
        }
        Self {
            shards,
            chunk_points,
            assignment,
            total_points: n,
            chunks,
        }
    }

    /// The chunks homed on `shard`, in id order.
    pub fn chunks_of_shard(&self, shard: usize) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter().filter(move |c| c.shard == shard)
    }

    /// Render the plan *and* its grid as a self-contained resumable
    /// manifest (`dvf-sweep-manifest/1`): full chunk index lists plus the
    /// grid dimensions, so a later invocation can reload the exact
    /// partition with [`ChunkPlan::from_manifest_json`] instead of
    /// replanning — the `dvf sweep --manifest` resume contract.
    pub fn manifest_json_full(&self, grid: &GridSpec) -> String {
        let mut w = dvf_obs::JsonWriter::new();
        w.begin_object();
        w.key("schema").string("dvf-sweep-manifest/1");
        w.key("assignment").string(self.assignment.as_str());
        w.key("shards").u64(self.shards as u64);
        w.key("chunk_points").u64(self.chunk_points as u64);
        w.key("total_points").u64(self.total_points as u64);
        w.key("grid").begin_array();
        for (name, values) in grid.dims() {
            w.begin_object();
            w.key("name").string(name);
            w.key("values").begin_array();
            for &v in values {
                // Shortest-round-trip float text: values reload bit-exactly,
                // so a resumed grid compares equal to a freshly parsed one.
                w.f64(v);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("chunks").begin_array();
        for chunk in &self.chunks {
            w.begin_object();
            w.key("id").u64(chunk.id as u64);
            w.key("shard").u64(chunk.shard as u64);
            w.key("indices").begin_array();
            for &idx in &chunk.indices {
                w.u64(idx as u64);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Reload a [`manifest_json_full`](Self::manifest_json_full) manifest.
    /// Validates the schema, the chunk/grid shape, and index bounds; the
    /// reconstructed plan compares equal to the one that was saved.
    pub fn from_manifest_json(text: &str) -> Result<(Self, GridSpec), String> {
        use dvf_obs::jsonval::Json;
        let doc = Json::parse(text).map_err(|e| format!("manifest does not parse: {e}"))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != "dvf-sweep-manifest/1" {
            return Err(format!(
                "unsupported manifest schema `{schema}` (expected dvf-sweep-manifest/1)"
            ));
        }
        let assignment = doc
            .get("assignment")
            .and_then(Json::as_str)
            .and_then(Assignment::parse)
            .ok_or("manifest has no valid `assignment`")?;
        let field = |key: &str| -> Result<usize, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("manifest has no numeric `{key}`"))
        };
        let shards = field("shards")?;
        let chunk_points = field("chunk_points")?;
        let total_points = field("total_points")?;

        let mut dims = Vec::new();
        for dim in doc
            .get("grid")
            .and_then(Json::as_arr)
            .ok_or("manifest has no `grid` array")?
        {
            let name = dim
                .get("name")
                .and_then(Json::as_str)
                .ok_or("grid dimension has no `name`")?;
            let values = dim
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("grid dimension has no `values`")?
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric grid value"))
                .collect::<Result<Vec<f64>, _>>()?;
            dims.push((name.to_owned(), values));
        }
        let grid = GridSpec::new(dims)?;
        if grid.len() != total_points {
            return Err(format!(
                "manifest grid has {} point(s) but claims total_points={total_points}",
                grid.len()
            ));
        }

        let mut chunks = Vec::new();
        let mut covered = 0usize;
        for (pos, c) in doc
            .get("chunks")
            .and_then(Json::as_arr)
            .ok_or("manifest has no `chunks` array")?
            .iter()
            .enumerate()
        {
            let id = c
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("chunk has no `id`")? as usize;
            if id != pos {
                return Err(format!(
                    "chunk ids must be dense (found {id} at position {pos})"
                ));
            }
            let shard = c
                .get("shard")
                .and_then(Json::as_u64)
                .ok_or("chunk has no `shard`")? as usize;
            if shard >= shards.max(1) {
                return Err(format!("chunk {id} is homed on out-of-range shard {shard}"));
            }
            let indices = c
                .get("indices")
                .and_then(Json::as_arr)
                .ok_or("chunk has no `indices`")?
                .iter()
                .map(|v| v.as_u64().map(|i| i as usize))
                .collect::<Option<Vec<usize>>>()
                .ok_or("non-numeric chunk index")?;
            if indices.is_empty() {
                return Err(format!("chunk {id} is empty"));
            }
            if indices.iter().any(|&i| i >= total_points) {
                return Err(format!("chunk {id} indexes past the grid"));
            }
            covered += indices.len();
            chunks.push(Chunk { id, shard, indices });
        }
        if covered != total_points {
            return Err(format!(
                "manifest chunks cover {covered} point(s) of {total_points}"
            ));
        }
        Ok((
            Self {
                shards,
                chunk_points,
                assignment,
                total_points,
                chunks,
            },
            grid,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2() -> GridSpec {
        GridSpec::new(vec![
            ("fit".to_owned(), vec![10.0, 20.0, 30.0]),
            ("n".to_owned(), vec![1.0, 2.0, 3.0, 4.0]),
        ])
        .unwrap()
    }

    #[test]
    fn grid_indexing_is_row_major_last_dim_fastest() {
        let g = grid2();
        assert_eq!(g.len(), 12);
        assert_eq!(g.point(0), vec![10.0, 1.0]);
        assert_eq!(g.point(1), vec![10.0, 2.0]);
        assert_eq!(g.point(4), vec![20.0, 1.0]);
        assert_eq!(g.point(11), vec![30.0, 4.0]);
        assert_eq!(g.names(), vec!["fit", "n"]);
    }

    #[test]
    fn grid_rejects_degenerate_shapes() {
        assert!(GridSpec::new(vec![]).is_err());
        assert!(GridSpec::new(vec![("a".to_owned(), vec![])]).is_err());
        assert!(GridSpec::new(vec![
            ("a".to_owned(), vec![1.0]),
            ("a".to_owned(), vec![2.0]),
        ])
        .is_err());
    }

    #[test]
    fn round_robin_covers_in_contiguous_runs() {
        let g = grid2();
        let plan = ChunkPlan::plan(&g, 3, 5, Assignment::RoundRobin, |_| 0);
        let sizes: Vec<usize> = plan.chunks.iter().map(|c| c.indices.len()).collect();
        assert_eq!(sizes, vec![5, 5, 2]);
        assert_eq!(plan.chunks[0].indices, (0..5).collect::<Vec<_>>());
        assert_eq!(plan.chunks[2].shard, 2);
    }

    #[test]
    fn affine_groups_equal_fingerprints() {
        let g = grid2();
        // Fingerprint = point index / 4 → three groups of four.
        let plan = ChunkPlan::plan(&g, 2, 64, Assignment::MemoAffine, |idx| (idx / 4) as u64);
        for chunk in &plan.chunks {
            assert!(
                chunk
                    .indices
                    .iter()
                    .all(|i| (mix64((i / 4) as u64) % 2) as usize == chunk.shard),
                "chunk mixes shards: {chunk:?}"
            );
        }
        // Equal fingerprints land on equal shards.
        let shard_of = |idx: usize| {
            plan.chunks
                .iter()
                .find(|c| c.indices.contains(&idx))
                .unwrap()
                .shard
        };
        assert_eq!(shard_of(0), shard_of(3));
        assert_eq!(shard_of(4), shard_of(7));
    }

    #[test]
    fn stable_hash_is_fixed_across_calls_and_orders_matter() {
        assert_eq!(hash_words(&[1, 2, 3]), hash_words(&[1, 2, 3]));
        assert_ne!(hash_words(&[1, 2, 3]), hash_words(&[3, 2, 1]));
        // Pinned value: the routing hash is part of the resume contract;
        // silently changing it would cold-start every warm rerun.
        assert_eq!(hash_words(&[]), FNV_OFFSET);
    }

    #[test]
    fn full_manifest_round_trips_plan_and_grid() {
        let g = GridSpec::new(vec![
            ("fit".to_owned(), vec![1000.0, 5000.0]),
            // An awkward double: shortest-round-trip text must reload
            // bit-exactly or resumed grids would spuriously mismatch.
            ("n".to_owned(), vec![0.1, 0.30000000000000004, 600.0]),
        ])
        .unwrap();
        let plan = ChunkPlan::plan(&g, 2, 2, Assignment::MemoAffine, |i| (i % 3) as u64);
        let json = plan.manifest_json_full(&g);
        let (reloaded, regrid) = ChunkPlan::from_manifest_json(&json).unwrap();
        assert_eq!(reloaded, plan);
        assert_eq!(regrid, g);
        // And the reload is itself re-serializable to the same bytes.
        assert_eq!(reloaded.manifest_json_full(&regrid), json);
    }

    #[test]
    fn manifest_load_rejects_corrupt_shapes() {
        let g = grid2();
        let plan = ChunkPlan::plan(&g, 2, 5, Assignment::RoundRobin, |_| 0);
        let json = plan.manifest_json_full(&g);
        assert!(ChunkPlan::from_manifest_json("not json").is_err());
        assert!(ChunkPlan::from_manifest_json("{\"schema\":\"nope/1\"}")
            .unwrap_err()
            .contains("schema"));
        // A manifest whose chunks do not cover the grid is rejected, not
        // silently resumed with holes.
        let truncated = json.replacen("{\"id\":0,\"shard\":0,\"indices\":[0,1,2,3,4]},", "", 1);
        assert_ne!(truncated, json, "test fixture must actually drop a chunk");
        assert!(ChunkPlan::from_manifest_json(&truncated).is_err());
    }
}
