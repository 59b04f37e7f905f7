//! # dvf-kernels
//!
//! The six numerical kernels of the DVF paper (Table II), implemented from
//! scratch and instrumented to emit per-data-structure memory-reference
//! traces — the measurement side of the paper's model verification
//! (Fig. 4):
//!
//! | kernel | method class | major structures | pattern |
//! |---|---|---|---|
//! | [`vm`]  — Vector Multiplication | dense linear algebra | `A`, `B`, `C` | streaming |
//! | [`cg`]  — Conjugate Gradient    | sparse/dense linear algebra | `A`, `x`, `p`, `r` | template+reuse+streaming |
//! | [`barnes_hut`] — Barnes-Hut N-body | N-body | `T`, `P` | random |
//! | [`mg`]  — Multi-grid V-cycle    | structured grids | `R` | template |
//! | [`fft`] — 1-D FFT               | spectral | `X` | template |
//! | [`mc`]  — Monte Carlo lookup    | Monte Carlo | `G`, `E` | random |
//!
//! Plus [`pcg`] — the preconditioned CG of use case A (Fig. 6).
//!
//! Every kernel has a traced entry point (`run_traced`) whose major data
//! structures live in [`recorder::TrackedBuffer`]s, and a plain entry
//! point for timing and correctness cross-checks. Traced and plain paths
//! compute identical results (asserted in each module's tests).
//!
//! The paper gathered the same reference streams with an Intel Pin tool;
//! see [`recorder`] for why source-level instrumentation is an equivalent
//! substitute.

pub mod barnes_hut;
pub mod cg;
pub mod cg_sparse;
pub mod fft;
pub mod mc;
pub mod mg;
pub mod pcg;
pub mod recorder;
pub mod vm;

pub use recorder::{
    record_fanout, record_hierarchy_fanout, record_tee, Fanout, Recorder, Replay, Tee, TraceSink,
    TrackedBuffer,
};

/// Names, method classes and major data structures of the six kernels —
/// paper Table II, used by the `table2` reproduction binary.
pub const TABLE2: [(&str, &str, &str, &str); 6] = [
    (
        "Vector Multiplication (VM)",
        "Dense linear algebra",
        "A, B, and C",
        "Streaming",
    ),
    (
        "Conjugate Gradient (CG)",
        "Sparse linear algebra",
        "A, x, p and r",
        "Template+Reuse+Streaming",
    ),
    (
        "Barnes-Hut simulation (NB)",
        "N-body method",
        "T and P",
        "Random",
    ),
    ("Multi-grid (MG)", "Structured grids", "R", "Template-based"),
    ("1D FFT (FT)", "Spectral methods", "X", "Template-based"),
    (
        "Monte Carlo simulation (MC)",
        "Monte Carlo",
        "G and E",
        "Random",
    ),
];
