//! Per-data-structure and aggregate cache statistics.

use crate::trace::{DsId, DsRegistry};
use std::fmt;

/// Counters for one data structure.
///
/// The paper's simulator "can report the number of cache misses and
/// writebacks" (§IV); a data structure's main-memory access count is the
/// sum of the two (each miss loads one line from DRAM, each writeback
/// stores one line to DRAM).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsStats {
    /// Load references issued.
    pub reads: u64,
    /// Store references issued.
    pub writes: u64,
    /// References that hit in the cache.
    pub hits: u64,
    /// References that missed (line fills from main memory).
    pub misses: u64,
    /// Dirty lines of this data structure evicted to main memory.
    pub writebacks: u64,
}

impl DsStats {
    /// Total references (`reads + writes`).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Main-memory accesses attributed to this data structure:
    /// `misses + writebacks` (paper §IV, `N_ha` measured).
    pub fn mem_accesses(&self) -> u64 {
        self.misses + self.writebacks
    }

    /// Miss ratio over all references; `0.0` for an untouched structure.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &DsStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
    }
}

impl fmt::Display for DsStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "r={} w={} hit={} miss={} wb={} mem={}",
            self.reads,
            self.writes,
            self.hits,
            self.misses,
            self.writebacks,
            self.mem_accesses()
        )
    }
}

/// Aggregate statistics for a full simulation, indexed by [`DsId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    per_ds: Vec<DsStats>,
}

impl CacheStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable counters for `ds`, growing the table on demand.
    #[inline]
    pub fn ds_mut(&mut self, ds: DsId) -> &mut DsStats {
        let idx = ds.index();
        if idx >= self.per_ds.len() {
            self.per_ds.resize(idx + 1, DsStats::default());
        }
        &mut self.per_ds[idx]
    }

    /// Counters for `ds` (zero if never touched).
    pub fn ds(&self, ds: DsId) -> DsStats {
        self.per_ds.get(ds.index()).copied().unwrap_or_default()
    }

    /// Sum over all data structures.
    pub fn total(&self) -> DsStats {
        let mut acc = DsStats::default();
        for s in &self.per_ds {
            acc.merge(s);
        }
        acc
    }

    /// Iterate `(DsId, stats)` for every tracked structure.
    pub fn iter(&self) -> impl Iterator<Item = (DsId, &DsStats)> {
        self.per_ds
            .iter()
            .enumerate()
            .map(|(i, s)| (DsId(i as u16), s))
    }

    /// Render a table with names resolved through `registry`.
    pub fn render(&self, registry: &DsRegistry) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "data", "reads", "writes", "misses", "writebacks", "mem"
        );
        for (id, s) in self.iter() {
            let name = if id.index() < registry.len() {
                registry.name(id)
            } else {
                "?"
            };
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
                name,
                s.reads,
                s.writes,
                s.misses,
                s.writebacks,
                s.mem_accesses()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_accesses_is_misses_plus_writebacks() {
        let s = DsStats {
            reads: 10,
            writes: 5,
            hits: 9,
            misses: 6,
            writebacks: 2,
        };
        assert_eq!(s.mem_accesses(), 8);
        assert_eq!(s.accesses(), 15);
        assert!((s.miss_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn miss_ratio_of_empty_is_zero() {
        assert_eq!(DsStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn stats_grow_on_demand() {
        let mut st = CacheStats::new();
        st.ds_mut(DsId(3)).misses = 7;
        assert_eq!(st.ds(DsId(3)).misses, 7);
        assert_eq!(st.ds(DsId(0)), DsStats::default());
        assert_eq!(st.ds(DsId(9)), DsStats::default());
    }

    #[test]
    fn total_merges_all() {
        let mut st = CacheStats::new();
        st.ds_mut(DsId(0)).misses = 3;
        st.ds_mut(DsId(1)).misses = 4;
        st.ds_mut(DsId(1)).writebacks = 1;
        let t = st.total();
        assert_eq!(t.misses, 7);
        assert_eq!(t.mem_accesses(), 8);
    }

    #[test]
    fn render_contains_names() {
        let mut reg = DsRegistry::new();
        let a = reg.register("A");
        let mut st = CacheStats::new();
        st.ds_mut(a).reads = 1;
        let table = st.render(&reg);
        assert!(table.contains('A'));
        assert!(table.contains("misses"));
    }
}
