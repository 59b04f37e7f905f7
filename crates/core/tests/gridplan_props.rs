//! Property tests for the distributed-sweep chunk planner.
//!
//! The coordinator's correctness rests on two invariants pinned here:
//! every grid point lands in **exactly one** chunk (no dropped or
//! duplicated rows after the merge), and memo-affine shard assignment is
//! a pure function of a point's fingerprint and the shard count — so it
//! is stable across chunk sizes and across reruns, which is what makes
//! resumed sweeps land on warm memo caches.

use dvf_core::gridplan::{mix64, Assignment, Chunk, ChunkPlan, GridSpec};
use proptest::prelude::*;

/// Build a grid whose dimension `d` has `shape[d]` values.
fn grid_of(shape: &[usize]) -> GridSpec {
    let dims = shape
        .iter()
        .enumerate()
        .map(|(d, &len)| {
            let name = format!("p{d}");
            let values = (0..len).map(|i| (i + 1) as f64 * 0.5).collect();
            (name, values)
        })
        .collect();
    GridSpec::new(dims).expect("non-degenerate grid")
}

/// A synthetic fingerprint with deliberate collisions: points whose
/// index agrees modulo `classes` are "cache-equivalent".
fn fp(idx: usize, classes: u64) -> u64 {
    (idx as u64) % classes
}

fn assert_exact_partition(plan: &ChunkPlan, total: usize, chunk_points: usize, shards: usize) {
    let mut seen = vec![0u32; total];
    for chunk in &plan.chunks {
        assert!(
            chunk.shard < shards,
            "chunk routed to shard {}",
            chunk.shard
        );
        assert!(
            !chunk.indices.is_empty() && chunk.indices.len() <= chunk_points,
            "chunk of {} points against a cap of {chunk_points}",
            chunk.indices.len()
        );
        assert!(
            chunk.indices.windows(2).all(|w| w[0] < w[1]),
            "chunk indices must be strictly ascending"
        );
        for &idx in &chunk.indices {
            seen[idx] += 1;
        }
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "every grid point must appear in exactly one chunk"
    );
    // Chunk ids are their position: the coordinator indexes `plan.chunks`
    // by the id it sends on the wire.
    for (pos, chunk) in plan.chunks.iter().enumerate() {
        assert_eq!(chunk.id, pos);
    }
    assert_eq!(plan.total_points, total);
}

/// Map each grid point to the shard whose chunk contains it.
fn shard_of_points(plan: &ChunkPlan, total: usize) -> Vec<usize> {
    let mut owner = vec![usize::MAX; total];
    for Chunk { shard, indices, .. } in &plan.chunks {
        for &idx in indices {
            owner[idx] = *shard;
        }
    }
    owner
}

proptest! {
    /// Exact partition under both assignment policies, for arbitrary
    /// grid shapes, shard counts, and chunk sizes.
    #[test]
    fn every_point_in_exactly_one_chunk(
        shape in prop::collection::vec(1usize..5, 1..4),
        shards in 1usize..5,
        chunk_points in 1usize..8,
        classes in 1u64..6,
        affine in 0usize..2,
    ) {
        let grid = grid_of(&shape);
        let assignment = if affine == 1 { Assignment::MemoAffine } else { Assignment::RoundRobin };
        let plan = ChunkPlan::plan(&grid, shards, chunk_points, assignment, |i| fp(i, classes));
        assert_exact_partition(&plan, grid.len(), chunk_points, shards);
    }

    /// Memo-affine shard choice depends only on (fingerprint, shard
    /// count): replanning with a different chunk size must not move any
    /// point to a different shard, and equal fingerprints co-locate.
    #[test]
    fn affine_assignment_is_stable_across_chunk_sizes(
        shape in prop::collection::vec(1usize..5, 1..4),
        shards in 1usize..5,
        cp_a in 1usize..8,
        cp_b in 1usize..8,
        classes in 1u64..6,
    ) {
        let grid = grid_of(&shape);
        let plan_a = ChunkPlan::plan(&grid, shards, cp_a, Assignment::MemoAffine, |i| fp(i, classes));
        let plan_b = ChunkPlan::plan(&grid, shards, cp_b, Assignment::MemoAffine, |i| fp(i, classes));
        let owners_a = shard_of_points(&plan_a, grid.len());
        let owners_b = shard_of_points(&plan_b, grid.len());
        prop_assert_eq!(&owners_a, &owners_b,
            "chunk size must not influence shard routing");
        // The routing law itself: shard = mix64(fp) % shards.
        for (idx, &owner) in owners_a.iter().enumerate() {
            prop_assert_eq!(owner, (mix64(fp(idx, classes)) % shards as u64) as usize);
        }
        // Replanning with identical inputs is byte-deterministic — the
        // resume path replays the same chunks in the same order.
        let replay = ChunkPlan::plan(&grid, shards, cp_a, Assignment::MemoAffine, |i| fp(i, classes));
        prop_assert_eq!(&plan_a, &replay);
        prop_assert_eq!(plan_a.manifest_json_full(&grid), replay.manifest_json_full(&grid));
    }

    /// Round-robin keeps grid order runs contiguous: chunk `i` holds the
    /// points `[i * cp, ...)` and lands on shard `i % shards`.
    #[test]
    fn round_robin_is_contiguous(
        shape in prop::collection::vec(1usize..5, 1..4),
        shards in 1usize..5,
        chunk_points in 1usize..8,
    ) {
        let grid = grid_of(&shape);
        let plan = ChunkPlan::plan(&grid, shards, chunk_points, Assignment::RoundRobin, |_| 0);
        for (i, chunk) in plan.chunks.iter().enumerate() {
            prop_assert_eq!(chunk.shard, i % shards);
            let base = i * chunk_points;
            let want: Vec<usize> = (base..(base + chunk_points).min(grid.len())).collect();
            prop_assert_eq!(&chunk.indices, &want);
        }
    }

    /// Grid indexing is row-major with the LAST dimension fastest —
    /// the same order as the nested loops a local sweep would run.
    #[test]
    fn grid_point_order_matches_nested_loops(
        shape in prop::collection::vec(1usize..5, 1..4),
    ) {
        let grid = grid_of(&shape);
        // Materialize the cross product exactly as nested for-loops
        // would: each dimension extends the prefix list, so the LAST
        // dimension varies fastest in the result.
        let mut expected: Vec<Vec<f64>> = vec![Vec::new()];
        for (_, values) in grid.dims() {
            expected = expected
                .iter()
                .flat_map(|prefix| {
                    values.iter().map(move |v| {
                        let mut point = prefix.clone();
                        point.push(*v);
                        point
                    })
                })
                .collect();
        }
        prop_assert_eq!(expected.len(), grid.len());
        for (idx, want) in expected.iter().enumerate() {
            prop_assert_eq!(&grid.point(idx), want);
        }
    }
}
