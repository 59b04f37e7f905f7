//! Golden `dvf-sweep-manifest/1` plans for a fixed 3-D grid.
//!
//! A saved manifest *is* the plan a `dvf sweep --manifest` resume replays,
//! so the chunk → shard map a grid plans to must not move when the
//! planner changes how it computes fingerprints. The grid sweeps a
//! machine-scoped parameter and two model parameters of a model with all
//! four pattern kinds; fingerprints come from the real
//! `DvfWorkflow::point_fingerprint`, as `dvf sweep --shards` computes them.

use dvf_core::gridplan::{Assignment, ChunkPlan, GridSpec};
use dvf_core::workflow::DvfWorkflow;

const MODEL: &str = r#"
    machine m {
      param ways = 4
      cache { associativity = ways  sets = 64  line = 32 }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model all_patterns {
      param n = 512
      param passes = 3
      data S { size = n * 8  element = 8 }
      data G { size = n * 16  element = 16 }
      data T { size = 64 * 8  element = 8 }
      data P { size = 32 * 8  element = 8 }
      kernel stream { access S as streaming(stride = 2) }
      kernel lookup { access G as random(k = 4, iters = n) }
      kernel stencil {
        access T as template(refs = (0, 8, 1, 9, 2, 10), repeat = passes)
        access P as reuse(interfering = n * 8, reuses = passes, scenario = concurrent)
      }
    }
"#;

fn manifest(assignment: Assignment) -> String {
    let wf = DvfWorkflow::parse(MODEL).unwrap();
    let grid = GridSpec::new(vec![
        ("ways".to_owned(), vec![2.0, 4.0, 8.0]),
        ("passes".to_owned(), vec![1.0, 3.0]),
        ("n".to_owned(), vec![128.0, 256.0, 512.0, 1024.0]),
    ])
    .unwrap();
    let names = grid.names();
    let plan = ChunkPlan::plan(&grid, 3, 4, assignment, |idx| {
        let point = dvf_core::sweep::point(&[], &names, &grid.point(idx));
        wf.point_fingerprint(&point).unwrap()
    });
    plan.manifest_json_full(&grid)
}

#[test]
fn memo_affine_plan_is_pinned() {
    assert_eq!(manifest(Assignment::MemoAffine), AFFINE_GOLDEN);
}

#[test]
fn round_robin_plan_is_pinned() {
    assert_eq!(manifest(Assignment::RoundRobin), ROUND_ROBIN_GOLDEN);
}

const AFFINE_GOLDEN: &str = r#"{"schema":"dvf-sweep-manifest/1","assignment":"affine","shards":3,"chunk_points":4,"total_points":24,"grid":[{"name":"ways","values":[2.0,4.0,8.0]},{"name":"passes","values":[1.0,3.0]},{"name":"n","values":[128.0,256.0,512.0,1024.0]}],"chunks":[{"id":0,"shard":0,"indices":[0,9,16,18]},{"id":1,"shard":0,"indices":[21]},{"id":2,"shard":1,"indices":[2,6,7,10]},{"id":3,"shard":1,"indices":[11,12,20,22]},{"id":4,"shard":1,"indices":[23]},{"id":5,"shard":2,"indices":[1,3,4,5]},{"id":6,"shard":2,"indices":[8,13,14,15]},{"id":7,"shard":2,"indices":[17,19]}]}"#;

const ROUND_ROBIN_GOLDEN: &str = r#"{"schema":"dvf-sweep-manifest/1","assignment":"round-robin","shards":3,"chunk_points":4,"total_points":24,"grid":[{"name":"ways","values":[2.0,4.0,8.0]},{"name":"passes","values":[1.0,3.0]},{"name":"n","values":[128.0,256.0,512.0,1024.0]}],"chunks":[{"id":0,"shard":0,"indices":[0,1,2,3]},{"id":1,"shard":1,"indices":[4,5,6,7]},{"id":2,"shard":2,"indices":[8,9,10,11]},{"id":3,"shard":0,"indices":[12,13,14,15]},{"id":4,"shard":1,"indices":[16,17,18,19]},{"id":5,"shard":2,"indices":[20,21,22,23]}]}"#;
