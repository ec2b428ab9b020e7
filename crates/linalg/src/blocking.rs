//! Cache-geometry-aware blocking parameters.
//!
//! The GEMM driver tiles its three loops so that the packed panels it streams
//! through stay resident in the right level of the cache hierarchy (the
//! Goto/BLIS decomposition):
//!
//! * a `KC × NR` micro-panel of B must live in L1 while the micro-kernel runs,
//! * the packed `MC × KC` block of A must live in L2,
//! * the packed `KC × NC` panel of B must live in L3.
//!
//! OPTIMUS reuses [`CacheConfig`] for a different purpose: §IV-A of the paper
//! requires the sampled user block to *at least occupy the L2 cache* so that
//! the timed sample exhibits the same blocking behaviour as the full run.

use crate::gemm::GemmElem;

/// Cache sizes used to derive blocking parameters.
///
/// Defaults ([`CacheConfig::PAPER`]) mirror the paper's evaluation machine
/// (Intel Xeon E7-4850 v3: 32 KB L1D, 256 KB L2 per core, large shared L3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Per-core L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// Per-core L2 cache size in bytes.
    pub l2_bytes: usize,
    /// Shared last-level cache size in bytes.
    pub l3_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::PAPER
    }
}

impl CacheConfig {
    /// The paper's evaluation machine; the geometry every default entry
    /// point blocks for ([`GemmElem::BLOCKS`]).
    pub const PAPER: CacheConfig = CacheConfig {
        l1_bytes: 32 * 1024,
        l2_bytes: 256 * 1024,
        l3_bytes: 8 * 1024 * 1024,
    };

    /// How many `f`-dimensional vectors of element size `bytes` are needed to
    /// occupy the L2 cache.
    ///
    /// This is OPTIMUS's minimum sample size rule (§IV-A): timing BMM on fewer
    /// rows than this degenerates toward matrix–vector multiply and
    /// underestimates BMM throughput.
    pub fn rows_to_fill_l2(&self, f: usize, bytes: usize) -> usize {
        let row_bytes = (f * bytes).max(1);
        self.l2_bytes.div_ceil(row_bytes).max(1)
    }
}

/// Loop tile sizes for the packed GEMM driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Rows of A packed per outer iteration (L2-resident block).
    pub mc: usize,
    /// Depth (shared dimension) packed per iteration (L1/L2 balance).
    pub kc: usize,
    /// Rows of B (columns of C) packed per iteration (L3-resident panel).
    pub nc: usize,
}

const fn clamp(v: usize, lo: usize, hi: usize) -> usize {
    if v < lo {
        lo
    } else if v > hi {
        hi
    } else {
        v
    }
}

impl BlockSizes {
    /// Derives tile sizes for element type `T` (its packed width and its
    /// `MR × NR` register tile) from the cache geometry.
    pub fn for_scalar<T: GemmElem>(cache: &CacheConfig) -> BlockSizes {
        BlockSizes::for_tile(cache, std::mem::size_of::<T::Panel>(), T::MR, T::NR)
    }

    /// Tile sizes for packed elements of `sz` bytes under an `mr × nr`
    /// register tile.
    ///
    /// The heuristics follow the BLIS analytical model, halving each level to
    /// leave room for the streaming source operands:
    /// `KC·NR·sz ≤ L1/2`, `MC·KC·sz ≤ L2/2`, `KC·NC·sz ≤ L3/2`. The clamp
    /// bounds keep `KC` even, so a depth block never splits one of the int8
    /// tier's packed pairs.
    pub const fn for_tile(cache: &CacheConfig, sz: usize, mr: usize, nr: usize) -> BlockSizes {
        let kc = clamp(cache.l1_bytes / 2 / (nr * sz), 64, 512) & !1;
        let mc = clamp(cache.l2_bytes / 2 / (kc * sz), mr, 512);
        // Round MC down to a multiple of MR so packed panels are uniform.
        let mc = mc / mr * mr;
        let nc = clamp(cache.l3_bytes / 2 / (kc * sz), nr, 8192);
        let nc = nc / nr * nr;
        BlockSizes { mc, kc, nc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_machine() {
        let c = CacheConfig::default();
        assert_eq!(c.l2_bytes, 256 * 1024);
    }

    #[test]
    fn block_sizes_respect_cache_budgets() {
        let cache = CacheConfig::default();
        let b = BlockSizes::for_scalar::<f64>(&cache);
        assert!(
            b.kc * f64::NR * 8 <= cache.l1_bytes,
            "B micro-panel spills L1"
        );
        assert!(b.mc * b.kc * 8 <= cache.l2_bytes, "A block spills L2");
        assert!(b.nc * b.kc * 8 <= cache.l3_bytes, "B panel spills L3");
        assert_eq!(b.mc % f64::MR, 0);
        assert_eq!(b.nc % f64::NR, 0);
    }

    #[test]
    fn default_blocks_are_the_paper_geometry_per_element_type() {
        fn check<T: GemmElem>() {
            assert_eq!(
                T::BLOCKS,
                BlockSizes::for_scalar::<T>(&CacheConfig::default())
            );
            assert_eq!(
                T::BLOCKS.kc % T::KGROUP,
                0,
                "a depth block splits a packed group"
            );
            assert_eq!(T::BLOCKS.mc % T::MR, 0);
            assert_eq!(T::BLOCKS.nc % T::NR, 0);
        }
        check::<f64>();
        check::<f32>();
        check::<i8>();
    }

    #[test]
    fn f32_blocks_are_at_least_as_deep_as_f64() {
        let cache = CacheConfig::default();
        let b32 = BlockSizes::for_scalar::<f32>(&cache);
        let b64 = BlockSizes::for_scalar::<f64>(&cache);
        assert!(b32.kc >= b64.kc);
    }

    #[test]
    fn tiny_caches_still_yield_valid_tiles() {
        let cache = CacheConfig {
            l1_bytes: 1024,
            l2_bytes: 2048,
            l3_bytes: 4096,
        };
        let b = BlockSizes::for_scalar::<f64>(&cache);
        assert!(b.mc >= f64::MR);
        assert!(b.nc >= f64::NR);
        assert!(b.kc >= 64); // clamp floor keeps the kernel efficient
    }

    #[test]
    fn rows_to_fill_l2_is_monotone_in_f() {
        let c = CacheConfig::default();
        let r10 = c.rows_to_fill_l2(10, 8);
        let r100 = c.rows_to_fill_l2(100, 8);
        assert!(r10 > r100);
        assert_eq!(c.rows_to_fill_l2(100, 8), (256 * 1024usize).div_ceil(800));
        assert!(c.rows_to_fill_l2(usize::MAX / 16, 8) >= 1);
    }
}
