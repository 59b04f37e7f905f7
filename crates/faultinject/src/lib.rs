//! # dvf-faultinject
//!
//! Statistical bit-flip fault injection over the paper's kernels — the
//! *baseline methodology* the DVF paper positions itself against
//! (§I, §VI: "researchers have to perform a large amount of fault
//! injection operations, which is prohibitively expensive").
//!
//! Implementing the baseline serves two purposes:
//!
//! 1. **Cost comparison** — an injection campaign needs hundreds of full
//!    kernel re-executions per data structure, versus one closed-form
//!    model evaluation (quantified by the `fi_compare` binary and the
//!    `eval_cost` bench).
//! 2. **Cross-validation** — the *ranking* of structures by empirical
//!    silent-data-corruption rate should agree with the DVF ranking,
//!    since DVF is designed to predict which structures are worth
//!    protecting.
//!
//! Faults are single bit flips injected into one element of one target
//! structure at a uniformly random point of the kernel's computation
//! (matching the single-event-upset model of the fault-injection
//! literature the paper cites). Outcomes are classified as:
//!
//! * **Benign** — output matches the golden run (the flip landed in dead
//!   data, was overwritten, or was absorbed by the algorithm);
//! * **SDC** — silent data corruption: the run completes but the output
//!   is wrong;
//! * **Detected** — the error is observable without output comparison
//!   (non-convergence, NaN/Inf).

pub mod campaign;
pub mod flip;

pub use campaign::{
    cg_campaign, ft_campaign, mc_campaign, vm_campaign, Campaign, CampaignResult, Outcome,
};
pub use flip::flip_bit;
