//! # dvf-cachesim
//!
//! A configurable, set-associative last-level cache (LLC) simulator with
//! **per-data-structure accounting**, built as the validation substrate for
//! the Data Vulnerability Factor (DVF) analytical models of
//! *Yu, Li, Mittal, Vetter — "Quantitatively Modeling Application Resilience
//! with the Data Vulnerability Factor", SC 2014*.
//!
//! The paper validates its coarse-grained memory-access models (CGPMAC) by
//! comparing against a Pin-based memory trace fed through an in-house LRU
//! cache simulator (paper §IV). This crate is that simulator:
//!
//! * set-associative organization with configurable capacity, associativity,
//!   set count and line length (paper Table IV configurations are provided
//!   as constants in [`config`]),
//! * write-back + write-allocate policy, counting both **misses** (line
//!   fills from main memory) and **writebacks** (dirty evictions to main
//!   memory),
//! * LRU replacement as used by the paper, plus FIFO, pseudo-LRU and random
//!   variants for ablation studies,
//! * every cache line remembers which *data structure* it belongs to, so
//!   misses and writebacks can be attributed to individual data structures —
//!   the granularity at which DVF is defined.
//!
//! ## Quick example
//!
//! ```
//! use dvf_cachesim::{CacheConfig, Simulator, MemRef, AccessKind, DsRegistry};
//!
//! // Paper Table IV "Small (Verification)" cache: 4-way, 64 sets, 32 B lines.
//! let config = CacheConfig::new(4, 64, 32).unwrap();
//! let mut registry = DsRegistry::new();
//! let a = registry.register("A");
//!
//! let mut sim = Simulator::new(config);
//! // Stream sequentially over 1 KiB of data structure A.
//! for offset in (0..1024).step_by(8) {
//!     sim.access(MemRef::new(a, offset, AccessKind::Read));
//! }
//! let report = sim.finish();
//! // 1024 B / 32 B lines = 32 compulsory misses, no reuse.
//! assert_eq!(report.ds(a).misses, 32);
//! assert_eq!(report.ds(a).mem_accesses(), 32);
//! ```

pub mod binio;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod replacement;
pub mod sim;
pub mod stats;
pub mod trace;

pub use binio::{read_binary, write_binary, write_binary_v2, TraceReader, TraceWriter};
pub use cache::{AccessOutcome, DemandOutcome, SetAssociativeCache, Victim, Writeback};
pub use config::{CacheConfig, CacheGeometry, ConfigError};
pub use hierarchy::{
    simulate_hierarchy, simulate_hierarchy_config, simulate_hierarchy_many, CacheHierarchy,
    HierarchyConfig, HierarchyReport, InclusionPolicy, LevelReport, LevelSpec, PrefetchStats,
    MAX_PREFETCH_DEGREE,
};
pub use replacement::{Fifo, Lru, PolicyKind, RandomEvict, ReplacementPolicy, TreePlru};
pub use sim::{simulate, simulate_many, simulate_with_policy, SimJob, SimReport, Simulator};
pub use stats::{CacheStats, DsStats};
pub use trace::{AccessKind, DsId, DsRegistry, MemRef, Trace};
