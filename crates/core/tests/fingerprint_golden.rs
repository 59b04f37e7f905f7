//! Golden values of `DvfWorkflow::point_fingerprint`.
//!
//! Fingerprints decide chunk → shard routing in a distributed sweep and
//! are part of the `--manifest` chunk plan that `dvf-sweep-manifest/1`
//! journals are replayed against, so a refactor must not move them. The
//! model covers all four pattern kinds, one concurrent `order` group (a
//! sharing ratio below 1) and a machine-scoped parameter, evaluated at
//! the default point and at two override points.

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
      data E { size = 2 * n * 16  element = 16 }
      data T { size = 64 * 8  element = 8 }
      data P { size = 32 * 8  element = 8 }
      kernel stream { access S as streaming(stride = 2) }
      kernel lookup {
        access G as random(k = 4, iters = n)
        access E as random(k = 2, iters = n, ratio = 0.5)
        order { (G E) }
      }
      kernel stencil {
        access T as template(refs = (0, 8, 1, 9, 2, 10), repeat = passes)
        access P as reuse(interfering = n * 8, reuses = passes, scenario = concurrent)
        access S as reuse(reuses = 2)
      }
    }
"#;

#[test]
fn point_fingerprints_are_pinned() {
    let wf = DvfWorkflow::parse(MODEL).unwrap();
    let points: [&[(&str, f64)]; 3] = [&[], &[("n", 1024.0), ("passes", 5.0)], &[("ways", 8.0)]];
    let got: Vec<u64> = points
        .iter()
        .map(|p| wf.point_fingerprint(p).unwrap())
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}

const GOLDEN: [u64; 3] = [
    0xc93f_021a_20c9_06ec,
    0x73e3_61d5_d705_5400,
    0x1c9d_c09c_aafd_cde4,
];

/// A model whose templates are `starts/step/ends` lane ranges (a 2-D
/// five-point stencil over a haloed grid, and a strided two-lane sweep)
/// next to an explicit `refs` template, so the lane form's fingerprint is
/// pinned separately from [`MODEL`]'s.
const LANE_MODEL: &str = r#"
    machine m {
      param ways = 4
      cache { associativity = ways  sets = 64  line = 32 }
      memory { fit = 5000 }
      core { flops = 1e9  bandwidth = 4e9 }
    }
    model lanes {
      param n = 24
      param passes = 2
      data G { size = (n + 2) * (n + 2) * 8  element = 8  dims = (n + 2, n + 2) }
      data H { size = 4 * n * 16  element = 16 }
      data T { size = 64 * 8  element = 8 }
      kernel stencil {
        access G as template(
          starts = (G(0,1), G(1,0), G(1,2), G(2,1)),
          step = 1,
          ends = (G(n-1,n), G(n,n-1), G(n,n+1), G(n+1,n)),
          repeat = passes
        )
        access H as template(starts = (0, 2 * n), step = 3, ends = (2 * n - 1, 4 * n - 1))
        access T as template(refs = (0, 8, 1, 9, 2, 10), repeat = passes)
      }
    }
"#;

#[test]
fn lane_template_fingerprints_are_pinned() {
    let wf = DvfWorkflow::parse(LANE_MODEL).unwrap();
    let points: [&[(&str, f64)]; 4] = [
        &[],
        &[("n", 40.0)],
        &[("passes", 3.0)],
        &[("ways", 8.0), ("n", 7.0)],
    ];
    let got: Vec<u64> = points
        .iter()
        .map(|p| wf.point_fingerprint(p).unwrap())
        .collect();
    assert_eq!(got, LANE_GOLDEN, "got {got:#x?}");
}

const LANE_GOLDEN: [u64; 4] = [
    0x1020_ef26_9654_dedf,
    0x16c2_c4aa_fb31_6544,
    0xfc97_2616_e428_84bf,
    0xf380_fd23_f53a_db58,
];
