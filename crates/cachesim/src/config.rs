//! Cache geometry configuration.
//!
//! Mirrors the notation of paper Table III:
//!
//! | symbol | meaning              | field            |
//! |--------|----------------------|------------------|
//! | `CA`   | cache associativity  | [`CacheConfig::associativity`] |
//! | `NA`   | number of cache sets | [`CacheConfig::num_sets`]      |
//! | `CL`   | cache line length    | [`CacheConfig::line_bytes`]    |
//! | `Cc`   | cache capacity       | [`CacheConfig::capacity`]      |

use std::fmt;

/// Error returned when a cache geometry is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Associativity must be at least 1.
    ZeroAssociativity,
    /// Associativity must fit the 16-bit per-way rank state.
    HugeAssociativity(usize),
    /// The number of sets must be a power of two (so that the set index is a
    /// bit field of the block address) and at least 1.
    BadNumSets(usize),
    /// The line length must be a power of two and at least 1 byte.
    BadLineBytes(usize),
    /// One set of 1-byte lines: the tag would be the whole 64-bit
    /// address, leaving the biased tag store no value for an empty way.
    WholeAddressTag,
    /// A cache hierarchy must have at least one level.
    EmptyHierarchy,
    /// Hierarchy levels must be ordered from smallest (closest to the CPU)
    /// to largest: level `level` is smaller than the level above it.
    InvertedHierarchy {
        /// Index of the offending (lower, larger-expected) level.
        level: usize,
        /// Capacity of the level above, in bytes.
        upper_bytes: usize,
        /// Capacity of the offending level, in bytes.
        lower_bytes: usize,
    },
    /// Hierarchy line sizes must not shrink going down: a lower level's
    /// line must cover the line above it, or writebacks and
    /// back-invalidations would straddle multiple lower lines.
    ShrinkingLineBytes {
        /// Index of the offending lower level.
        level: usize,
        /// Line length of the level above, in bytes.
        upper_bytes: usize,
        /// Line length of the offending level, in bytes.
        lower_bytes: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroAssociativity => write!(f, "cache associativity must be >= 1"),
            ConfigError::HugeAssociativity(n) => {
                write!(f, "cache associativity must be <= 65536, got {n}")
            }
            ConfigError::BadNumSets(n) => {
                write!(f, "number of cache sets must be a power of two, got {n}")
            }
            ConfigError::BadLineBytes(n) => {
                write!(f, "cache line length must be a power of two bytes, got {n}")
            }
            ConfigError::WholeAddressTag => write!(
                f,
                "a cache of one set with 1-byte lines is not supported; \
                 use at least 2 sets or 2-byte lines"
            ),
            ConfigError::EmptyHierarchy => {
                write!(f, "cache hierarchy must have at least one level")
            }
            ConfigError::InvertedHierarchy {
                level,
                upper_bytes,
                lower_bytes,
            } => {
                write!(
                    f,
                    "hierarchy level {level} ({lower_bytes} B) is smaller than \
                     the level above it ({upper_bytes} B); order levels from \
                     smallest to largest"
                )
            }
            ConfigError::ShrinkingLineBytes {
                level,
                upper_bytes,
                lower_bytes,
            } => {
                write!(
                    f,
                    "hierarchy level {level} has a {lower_bytes} B line, \
                     shorter than the {upper_bytes} B line above it; line \
                     sizes must not shrink going down"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry of a set-associative cache.
///
/// Capacity is derived: `Cc = CA * NA * CL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// `CA`: number of ways per set.
    pub associativity: usize,
    /// `NA`: number of sets.
    pub num_sets: usize,
    /// `CL`: cache line (block) length in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Create a validated configuration.
    ///
    /// `num_sets` and `line_bytes` must be powers of two; `associativity`
    /// must be nonzero.
    pub fn new(
        associativity: usize,
        num_sets: usize,
        line_bytes: usize,
    ) -> Result<Self, ConfigError> {
        let config = Self {
            associativity,
            num_sets,
            line_bytes,
        };
        config.validate()?;
        Ok(config)
    }

    /// Check the power-of-two assumptions the address math relies on, and
    /// that a tag is narrower than an address (see
    /// [`ConfigError::WholeAddressTag`]).
    ///
    /// The fields are public (so Table IV can be `const`), which means a
    /// struct literal can bypass [`CacheConfig::new`]; every consumer that
    /// decomposes addresses goes through [`CacheConfig::geometry`], which
    /// re-validates, so a non-power-of-two literal fails loudly instead of
    /// silently mis-mapping addresses.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.associativity == 0 {
            return Err(ConfigError::ZeroAssociativity);
        }
        if self.associativity > 1 << 16 {
            return Err(ConfigError::HugeAssociativity(self.associativity));
        }
        if self.num_sets == 0 || !self.num_sets.is_power_of_two() {
            return Err(ConfigError::BadNumSets(self.num_sets));
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::BadLineBytes(self.line_bytes));
        }
        if self.num_sets == 1 && self.line_bytes == 1 {
            return Err(ConfigError::WholeAddressTag);
        }
        Ok(())
    }

    /// Precompute the shift/mask constants for address decomposition,
    /// validating the geometry first.
    pub fn try_geometry(&self) -> Result<CacheGeometry, ConfigError> {
        self.validate()?;
        Ok(CacheGeometry {
            line_shift: self.line_bytes.trailing_zeros(),
            set_shift: self.num_sets.trailing_zeros(),
            set_mask: self.num_sets as u64 - 1,
        })
    }

    /// Like [`CacheConfig::try_geometry`] but panics with the descriptive
    /// error for invalid geometries (used by infallible constructors).
    pub fn geometry(&self) -> CacheGeometry {
        self.try_geometry()
            .unwrap_or_else(|e| panic!("invalid cache geometry: {e}"))
    }

    /// Total capacity `Cc` in bytes.
    pub fn capacity(&self) -> usize {
        self.associativity * self.num_sets * self.line_bytes
    }

    /// Total number of cache blocks (`CA * NA`).
    pub fn num_blocks(&self) -> usize {
        self.associativity * self.num_sets
    }

    /// Map a byte address to its cache block number (`addr / CL`).
    ///
    /// Convenience for cold paths; the simulator hot loop uses a
    /// [`CacheGeometry`] computed once instead.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr >> self.line_bytes.trailing_zeros()
    }

    /// Map a block number to its set index (`block mod NA`).
    #[inline]
    pub fn set_of(&self, block: u64) -> usize {
        (block & (self.num_sets as u64 - 1)) as usize
    }

    /// Tag of a block (`block / NA`).
    #[inline]
    pub fn tag_of(&self, block: u64) -> u64 {
        block >> self.num_sets.trailing_zeros()
    }

    /// Reconstruct the base byte address of the line with the given tag
    /// in the given set (inverse of [`block_of`]/[`set_of`]/[`tag_of`]).
    ///
    /// [`block_of`]: CacheConfig::block_of
    /// [`set_of`]: CacheConfig::set_of
    /// [`tag_of`]: CacheConfig::tag_of
    #[inline]
    pub fn addr_of(&self, tag: u64, set: usize) -> u64 {
        let block = (tag << self.num_sets.trailing_zeros()) | set as u64;
        block << self.line_bytes.trailing_zeros()
    }
}

/// Address-decomposition constants of one [`CacheConfig`], computed once.
///
/// The per-access path splits every address into (tag, set, block offset);
/// recomputing `trailing_zeros` and the set mask from the raw geometry on
/// each reference is measurable waste at tens of millions of references
/// per second, so [`CacheConfig::geometry`] hoists them into this struct
/// at cache-construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// `log2(CL)`: shift from byte address to block number.
    pub line_shift: u32,
    /// `log2(NA)`: shift from block number to tag.
    pub set_shift: u32,
    /// `NA - 1`: mask extracting the set index from a block number.
    pub set_mask: u64,
}

impl CacheGeometry {
    /// Block number of a byte address.
    #[inline(always)]
    pub fn block_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Set index of a block.
    #[inline(always)]
    pub fn set_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    /// Tag of a block.
    #[inline(always)]
    pub fn tag_of(&self, block: u64) -> u64 {
        block >> self.set_shift
    }

    /// Base byte address of the line with `tag` in `set`.
    #[inline(always)]
    pub fn addr_of(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.set_shift) | set as u64) << self.line_shift
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cap = self.capacity();
        if cap >= 1024 * 1024 && cap.is_multiple_of(1024 * 1024) {
            write!(f, "{}MB", cap / (1024 * 1024))?;
        } else if cap >= 1024 && cap.is_multiple_of(1024) {
            write!(f, "{}KB", cap / 1024)?;
        } else {
            write!(f, "{cap}B")?;
        }
        write!(
            f,
            " (CA={}, NA={}, CL={}B)",
            self.associativity, self.num_sets, self.line_bytes
        )
    }
}

/// The six cache configurations of paper Table IV.
pub mod table4 {
    use super::CacheConfig;

    /// "Small (Verification)": 4-way, 64 sets, 32 B lines, 8 KB.
    pub const SMALL_VERIFICATION: CacheConfig = CacheConfig {
        associativity: 4,
        num_sets: 64,
        line_bytes: 32,
    };

    /// "Large (Verification)": 16-way, 4096 sets, 64 B lines, 4 MB.
    pub const LARGE_VERIFICATION: CacheConfig = CacheConfig {
        associativity: 16,
        num_sets: 4096,
        line_bytes: 64,
    };

    /// "16KB (Profiling)": 2-way, 1024 sets, 8 B lines.
    pub const PROFILE_16KB: CacheConfig = CacheConfig {
        associativity: 2,
        num_sets: 1024,
        line_bytes: 8,
    };

    /// "128KB (Profiling)": 4-way, 2048 sets, 16 B lines.
    pub const PROFILE_128KB: CacheConfig = CacheConfig {
        associativity: 4,
        num_sets: 2048,
        line_bytes: 16,
    };

    /// "1MB (Profiling)": 8-way, 4096 sets, 32 B lines.
    ///
    /// The paper lists `CA = 6`, which does not multiply out to 1 MB with
    /// `NA = 4096` and `CL = 32` (6*4096*32 = 768 KB); we use the nearest
    /// power-of-two associativity that matches the stated 1 MB capacity.
    pub const PROFILE_1MB: CacheConfig = CacheConfig {
        associativity: 8,
        num_sets: 4096,
        line_bytes: 32,
    };

    /// "8MB (Profiling)": 8-way, 8192 sets, 64 B lines... the paper's row
    /// (8, 8192, 64) multiplies out to exactly 4 MB * 2 = 8192*8*64 = 4 MiB?
    /// 8192 sets * 8 ways * 64 B = 4 MiB. To honour the stated 8 MB capacity
    /// we use 16 ways.
    pub const PROFILE_8MB: CacheConfig = CacheConfig {
        associativity: 16,
        num_sets: 8192,
        line_bytes: 64,
    };

    /// The four profiling configurations used by paper Figure 5, smallest
    /// to largest.
    pub const PROFILING: [CacheConfig; 4] = [PROFILE_16KB, PROFILE_128KB, PROFILE_1MB, PROFILE_8MB];

    /// Labels matching [`PROFILING`].
    pub const PROFILING_LABELS: [&str; 4] = ["16KB", "128KB", "1MB", "8MB"];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_product() {
        let c = CacheConfig::new(4, 64, 32).unwrap();
        assert_eq!(c.capacity(), 8 * 1024);
        assert_eq!(c.num_blocks(), 256);
    }

    #[test]
    fn rejects_zero_associativity() {
        assert_eq!(
            CacheConfig::new(0, 64, 32),
            Err(ConfigError::ZeroAssociativity)
        );
    }

    #[test]
    fn rejects_non_power_of_two_sets() {
        assert_eq!(
            CacheConfig::new(4, 65, 32),
            Err(ConfigError::BadNumSets(65))
        );
        assert_eq!(CacheConfig::new(4, 0, 32), Err(ConfigError::BadNumSets(0)));
    }

    #[test]
    fn rejects_non_power_of_two_lines() {
        assert_eq!(
            CacheConfig::new(4, 64, 48),
            Err(ConfigError::BadLineBytes(48))
        );
        assert_eq!(
            CacheConfig::new(4, 64, 0),
            Err(ConfigError::BadLineBytes(0))
        );
    }

    #[test]
    fn rejects_one_set_of_byte_lines() {
        assert_eq!(CacheConfig::new(2, 1, 1), Err(ConfigError::WholeAddressTag));
        // Either field alone leaves the tag at most 63 bits wide.
        assert!(CacheConfig::new(2, 2, 1).is_ok());
        assert!(CacheConfig::new(2, 1, 2).is_ok());
    }

    #[test]
    fn address_mapping_roundtrip() {
        let c = CacheConfig::new(4, 64, 32).unwrap();
        let addr = 0xdead_beef;
        let block = c.block_of(addr);
        assert_eq!(block, addr / 32);
        let set = c.set_of(block);
        assert_eq!(set, (block % 64) as usize);
        let tag = c.tag_of(block);
        assert_eq!(tag, block / 64);
        // (tag, set) uniquely reconstructs the block and line address.
        assert_eq!(tag * 64 + set as u64, block);
        assert_eq!(c.addr_of(tag, set), block * 32);
        assert_eq!(c.block_of(c.addr_of(tag, set)), block);
    }

    #[test]
    fn table4_capacities_match_labels() {
        use table4::*;
        assert_eq!(SMALL_VERIFICATION.capacity(), 8 * 1024);
        assert_eq!(LARGE_VERIFICATION.capacity(), 4 * 1024 * 1024);
        assert_eq!(PROFILE_16KB.capacity(), 16 * 1024);
        assert_eq!(PROFILE_128KB.capacity(), 128 * 1024);
        assert_eq!(PROFILE_1MB.capacity(), 1024 * 1024);
        assert_eq!(PROFILE_8MB.capacity(), 8 * 1024 * 1024);
    }

    #[test]
    fn geometry_matches_config_math() {
        let c = CacheConfig::new(4, 64, 32).unwrap();
        let g = c.geometry();
        for addr in [0u64, 31, 32, 0xdead_beef, u64::MAX] {
            let block = c.block_of(addr);
            assert_eq!(g.block_of(addr), block);
            assert_eq!(g.set_of(block), c.set_of(block));
            assert_eq!(g.tag_of(block), c.tag_of(block));
            let (tag, set) = (c.tag_of(block), c.set_of(block));
            assert_eq!(g.addr_of(tag, set), c.addr_of(tag, set));
        }
    }

    #[test]
    fn geometry_rejects_unvalidated_literals() {
        // Public fields allow non-power-of-two literals to bypass `new`;
        // geometry() re-validates with the descriptive error.
        let bad = CacheConfig {
            associativity: 4,
            num_sets: 65,
            line_bytes: 32,
        };
        assert_eq!(bad.try_geometry(), Err(ConfigError::BadNumSets(65)));
        let bad_line = CacheConfig {
            associativity: 4,
            num_sets: 64,
            line_bytes: 48,
        };
        assert_eq!(bad_line.try_geometry(), Err(ConfigError::BadLineBytes(48)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_panic_is_descriptive() {
        let bad = CacheConfig {
            associativity: 2,
            num_sets: 3,
            line_bytes: 32,
        };
        let _ = bad.geometry();
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(
            table4::SMALL_VERIFICATION.to_string(),
            "8KB (CA=4, NA=64, CL=32B)"
        );
    }
}
