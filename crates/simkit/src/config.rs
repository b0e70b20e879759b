//! System configuration mirroring Table 1 of the MuonTrap paper.
//!
//! Every experiment in the evaluation starts from [`SystemConfig::paper_default`]
//! and then adjusts the knobs it sweeps (filter-cache size, associativity,
//! protection toggles). The configuration is deliberately a plain data structure
//! with public fields so harnesses can tweak it, but constructed through
//! validated builders/constructors.

use std::fmt;

use crate::json::{Json, ToJson};

/// Parameters of a single set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set). Use `ways == lines` for full associativity.
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub hit_latency: u64,
    /// Number of Miss Status Holding Registers (outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    /// Panics if `size_bytes` is zero or `ways` is zero.
    pub fn new(size_bytes: u64, ways: usize, hit_latency: u64, mshrs: usize) -> Self {
        assert!(size_bytes > 0, "cache size must be positive");
        assert!(ways > 0, "associativity must be positive");
        CacheConfig {
            size_bytes,
            ways,
            hit_latency,
            mshrs,
        }
    }

    /// Number of cache lines this cache holds for the given line size.
    pub fn num_lines(&self, line_bytes: u64) -> usize {
        ((self.size_bytes / line_bytes).max(1)) as usize
    }

    /// Number of sets for the given line size (lines / ways, at least one).
    pub fn num_sets(&self, line_bytes: u64) -> usize {
        let lines = self.num_lines(line_bytes);
        (lines / self.ways.min(lines)).max(1)
    }
}

/// Out-of-order pipeline parameters (Table 1, "Main cores").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Fetch/issue/commit width in instructions per cycle.
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Instruction-queue entries.
    pub iq_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Integer ALUs.
    pub int_alus: usize,
    /// Floating-point ALUs.
    pub fp_alus: usize,
    /// Multiply/divide units.
    pub mul_div_units: usize,
    /// Branch misprediction front-end refill penalty, in cycles.
    pub mispredict_penalty: u64,
}

/// Branch-predictor parameters (Table 1, "Tournament Branch Pred.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchPredictorConfig {
    /// Local history table entries.
    pub local_entries: usize,
    /// Global history table entries.
    pub global_entries: usize,
    /// Chooser table entries.
    pub chooser_entries: usize,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Return address stack entries.
    pub ras_entries: usize,
}

/// TLB parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Entries per TLB (split I/D).
    pub entries: usize,
    /// Hit latency in cycles (on top of the access).
    pub hit_latency: u64,
    /// Page-table walk latency in cycles on a TLB miss (memory accesses are
    /// modelled through the cache hierarchy in addition to this fixed cost).
    pub walk_latency: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
}

/// DRAM timing parameters (roughly DDR3-1600 11-11-11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Latency of a row-buffer hit, in core cycles.
    pub row_hit_latency: u64,
    /// Latency of a row-buffer miss (precharge + activate + CAS), in core cycles.
    pub row_miss_latency: u64,
    /// Number of banks (row buffers tracked).
    pub banks: usize,
    /// Bytes per DRAM row.
    pub row_bytes: u64,
}

/// Knobs of the MuonTrap protection mechanisms, used both by the `muontrap`
/// crate and by the cost-breakdown experiments (figures 8 and 9). Every
/// MuonTrap has its data filter cache (L0D); these choose what guards it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtectionConfig {
    /// Enforce the filter-cache commit/write-through protections and keep
    /// speculative translations in the filter TLB (§4.2, §4.7). When false
    /// the L0 behaves as an insecure L0.
    pub secure_filter: bool,
    /// Restrict speculative coherence transactions (§4.5).
    pub coherence_protection: bool,
    /// Add the instruction filter cache (§4.7).
    pub instruction_filter_cache: bool,
    /// Train/notify the prefetcher only at commit (§4.6).
    pub prefetch_at_commit: bool,
    /// Clear the filter caches on every misspeculation (§4.9).
    pub clear_on_misspeculate: bool,
    /// Access the L0 filter cache and L1 in parallel (§6.5).
    pub parallel_l1_access: bool,
}

impl ProtectionConfig {
    /// No protections at all: the data filter cache behaves as an insecure L0
    /// (figure 8/9 "insecure L0" series). The unprotected baseline, which
    /// builds no filter caches, ignores the protection configuration.
    pub fn insecure_l0() -> Self {
        ProtectionConfig {
            secure_filter: false,
            coherence_protection: false,
            instruction_filter_cache: false,
            prefetch_at_commit: false,
            clear_on_misspeculate: false,
            parallel_l1_access: false,
        }
    }

    /// The full MuonTrap configuration used for figures 3 and 4.
    pub fn muontrap_default() -> Self {
        ProtectionConfig {
            secure_filter: true,
            coherence_protection: true,
            instruction_filter_cache: true,
            prefetch_at_commit: true,
            clear_on_misspeculate: false,
            parallel_l1_access: false,
        }
    }

    /// MuonTrap plus clearing on every misspeculation (figure 8/9 final bar).
    pub fn muontrap_clear_on_misspeculate() -> Self {
        ProtectionConfig {
            clear_on_misspeculate: true,
            ..ProtectionConfig::muontrap_default()
        }
    }

    /// MuonTrap with parallel L0/L1 lookup (figure 9 "parallel L1d").
    pub fn muontrap_parallel_l1() -> Self {
        ProtectionConfig {
            parallel_l1_access: true,
            ..ProtectionConfig::muontrap_default()
        }
    }
}

impl Default for ProtectionConfig {
    fn default() -> Self {
        ProtectionConfig::muontrap_default()
    }
}

/// Complete system configuration, mirroring Table 1 of the paper.
///
/// All fields are integers/booleans, so the whole configuration is `Eq` and
/// `Hash`; the experiment session uses that to key its baseline-run cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// Cache-line size in bytes, identical at every level (§4.1).
    pub line_bytes: u64,
    /// Out-of-order pipeline parameters.
    pub pipeline: PipelineConfig,
    /// Branch-predictor parameters.
    pub branch_predictor: BranchPredictorConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// Data filter cache (L0D).
    pub data_filter: CacheConfig,
    /// Instruction filter cache (L0I).
    pub inst_filter: CacheConfig,
    /// TLB parameters.
    pub tlb: TlbConfig,
    /// Filter TLB entries.
    pub filter_tlb_entries: usize,
    /// DRAM timing.
    pub dram: DramConfig,
    /// L2 stride-prefetcher degree (lines fetched ahead); zero disables it.
    pub prefetch_degree: usize,
    /// Scheduler time quantum in cycles (full-system runs context switch on it).
    pub scheduler_quantum: u64,
    /// Protection mechanism toggles.
    pub protection: ProtectionConfig,
}

impl SystemConfig {
    /// The configuration from Table 1 of the paper.
    pub fn paper_default() -> Self {
        SystemConfig {
            cores: 4,
            line_bytes: 64,
            pipeline: PipelineConfig {
                width: 8,
                rob_entries: 192,
                iq_entries: 64,
                lq_entries: 32,
                sq_entries: 32,
                int_alus: 6,
                fp_alus: 4,
                mul_div_units: 2,
                mispredict_penalty: 12,
            },
            branch_predictor: BranchPredictorConfig {
                local_entries: 2048,
                global_entries: 8192,
                chooser_entries: 2048,
                btb_entries: 4096,
                ras_entries: 16,
            },
            l1i: CacheConfig::new(32 * 1024, 2, 1, 4),
            l1d: CacheConfig::new(64 * 1024, 2, 2, 4),
            l2: CacheConfig::new(2 * 1024 * 1024, 8, 20, 16),
            data_filter: CacheConfig::new(2 * 1024, 4, 1, 4),
            inst_filter: CacheConfig::new(2 * 1024, 4, 1, 4),
            tlb: TlbConfig {
                entries: 64,
                hit_latency: 0,
                walk_latency: 30,
                page_bytes: 4096,
            },
            filter_tlb_entries: 16,
            dram: DramConfig {
                row_hit_latency: 80,
                row_miss_latency: 160,
                banks: 16,
                row_bytes: 8 * 1024,
            },
            prefetch_degree: 2,
            scheduler_quantum: 200_000,
            protection: ProtectionConfig::muontrap_default(),
        }
    }

    /// A scaled-down configuration for fast unit/integration tests: same shape,
    /// smaller structures so that simulations finish quickly.
    pub fn small_test() -> Self {
        let mut cfg = SystemConfig::paper_default();
        cfg.pipeline.rob_entries = 32;
        cfg.pipeline.iq_entries = 16;
        cfg.pipeline.lq_entries = 8;
        cfg.pipeline.sq_entries = 8;
        cfg.l1i = CacheConfig::new(4 * 1024, 2, 1, 4);
        cfg.l1d = CacheConfig::new(4 * 1024, 2, 2, 4);
        cfg.l2 = CacheConfig::new(64 * 1024, 8, 20, 8);
        cfg.data_filter = CacheConfig::new(512, 4, 1, 4);
        cfg.inst_filter = CacheConfig::new(512, 4, 1, 4);
        cfg.scheduler_quantum = 20_000;
        cfg
    }

    /// Returns a copy with the data filter cache resized to `size_bytes`
    /// bytes and `ways` ways, keeping its latency and MSHR count (used by the
    /// figure 5/6 filter-cache sweeps).
    pub fn with_data_filter(&self, size_bytes: u64, ways: usize) -> SystemConfig {
        let mut cfg = self.clone();
        cfg.data_filter = CacheConfig::new(
            size_bytes,
            ways,
            cfg.data_filter.hit_latency,
            cfg.data_filter.mshrs,
        );
        cfg
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("core count must be positive"));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::new("line size must be a power of two"));
        }
        if self.pipeline.width == 0 || self.pipeline.rob_entries == 0 {
            return Err(ConfigError::new(
                "pipeline width and ROB size must be positive",
            ));
        }
        if self.pipeline.lq_entries == 0 || self.pipeline.sq_entries == 0 {
            return Err(ConfigError::new("load/store queues must be non-empty"));
        }
        for (name, c) in [
            ("l1i", &self.l1i),
            ("l1d", &self.l1d),
            ("l2", &self.l2),
            ("data_filter", &self.data_filter),
            ("inst_filter", &self.inst_filter),
        ] {
            if c.size_bytes < self.line_bytes {
                return Err(ConfigError::new(format!(
                    "cache {name} smaller than one line ({} < {})",
                    c.size_bytes, self.line_bytes
                )));
            }
        }
        if !self.tlb.page_bytes.is_power_of_two() {
            return Err(ConfigError::new("page size must be a power of two"));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default()
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cores: {}, line: {} B", self.cores, self.line_bytes)?;
        writeln!(
            f,
            "pipeline: {}-wide, ROB {}, IQ {}, LQ {}, SQ {}",
            self.pipeline.width,
            self.pipeline.rob_entries,
            self.pipeline.iq_entries,
            self.pipeline.lq_entries,
            self.pipeline.sq_entries
        )?;
        writeln!(
            f,
            "L1I {} KiB/{}-way/{}c  L1D {} KiB/{}-way/{}c  L2 {} KiB/{}-way/{}c",
            self.l1i.size_bytes / 1024,
            self.l1i.ways,
            self.l1i.hit_latency,
            self.l1d.size_bytes / 1024,
            self.l1d.ways,
            self.l1d.hit_latency,
            self.l2.size_bytes / 1024,
            self.l2.ways,
            self.l2.hit_latency
        )?;
        writeln!(
            f,
            "filter caches: D {} B/{}-way, I {} B/{}-way",
            self.data_filter.size_bytes,
            self.data_filter.ways,
            self.inst_filter.size_bytes,
            self.inst_filter.ways
        )?;
        write!(f, "protection: {:?}", self.protection)
    }
}

// The configuration's JSON form exists for one consumer: the result store's
// fingerprints. Field order is fixed and every knob that can change a
// simulation's outcome appears, so two configs fingerprint equal exactly when
// the simulations they describe are interchangeable.

impl ToJson for CacheConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("size_bytes", Json::UInt(self.size_bytes)),
            ("ways", Json::UInt(self.ways as u64)),
            ("hit_latency", Json::UInt(self.hit_latency)),
            ("mshrs", Json::UInt(self.mshrs as u64)),
        ])
    }
}

impl ToJson for PipelineConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("width", Json::UInt(self.width as u64)),
            ("rob_entries", Json::UInt(self.rob_entries as u64)),
            ("iq_entries", Json::UInt(self.iq_entries as u64)),
            ("lq_entries", Json::UInt(self.lq_entries as u64)),
            ("sq_entries", Json::UInt(self.sq_entries as u64)),
            ("int_alus", Json::UInt(self.int_alus as u64)),
            ("fp_alus", Json::UInt(self.fp_alus as u64)),
            ("mul_div_units", Json::UInt(self.mul_div_units as u64)),
            ("mispredict_penalty", Json::UInt(self.mispredict_penalty)),
        ])
    }
}

impl ToJson for BranchPredictorConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("local_entries", Json::UInt(self.local_entries as u64)),
            ("global_entries", Json::UInt(self.global_entries as u64)),
            ("chooser_entries", Json::UInt(self.chooser_entries as u64)),
            ("btb_entries", Json::UInt(self.btb_entries as u64)),
            ("ras_entries", Json::UInt(self.ras_entries as u64)),
        ])
    }
}

impl ToJson for TlbConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("entries", Json::UInt(self.entries as u64)),
            ("hit_latency", Json::UInt(self.hit_latency)),
            ("walk_latency", Json::UInt(self.walk_latency)),
            ("page_bytes", Json::UInt(self.page_bytes)),
        ])
    }
}

impl ToJson for DramConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("row_hit_latency", Json::UInt(self.row_hit_latency)),
            ("row_miss_latency", Json::UInt(self.row_miss_latency)),
            ("banks", Json::UInt(self.banks as u64)),
            ("row_bytes", Json::UInt(self.row_bytes)),
        ])
    }
}

impl ToJson for ProtectionConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("secure_filter", Json::Bool(self.secure_filter)),
            (
                "coherence_protection",
                Json::Bool(self.coherence_protection),
            ),
            (
                "instruction_filter_cache",
                Json::Bool(self.instruction_filter_cache),
            ),
            ("prefetch_at_commit", Json::Bool(self.prefetch_at_commit)),
            (
                "clear_on_misspeculate",
                Json::Bool(self.clear_on_misspeculate),
            ),
            ("parallel_l1_access", Json::Bool(self.parallel_l1_access)),
        ])
    }
}

impl ToJson for SystemConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cores", Json::UInt(self.cores as u64)),
            ("line_bytes", Json::UInt(self.line_bytes)),
            ("pipeline", self.pipeline.to_json()),
            ("branch_predictor", self.branch_predictor.to_json()),
            ("l1i", self.l1i.to_json()),
            ("l1d", self.l1d.to_json()),
            ("l2", self.l2.to_json()),
            ("data_filter", self.data_filter.to_json()),
            ("inst_filter", self.inst_filter.to_json()),
            ("tlb", self.tlb.to_json()),
            (
                "filter_tlb_entries",
                Json::UInt(self.filter_tlb_entries as u64),
            ),
            ("dram", self.dram.to_json()),
            ("prefetch_degree", Json::UInt(self.prefetch_degree as u64)),
            ("scheduler_quantum", Json::UInt(self.scheduler_quantum)),
            ("protection", self.protection.to_json()),
        ])
    }
}

/// Error returned by [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid system configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_1() {
        let cfg = SystemConfig::paper_default();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.pipeline.rob_entries, 192);
        assert_eq!(cfg.pipeline.iq_entries, 64);
        assert_eq!(cfg.pipeline.lq_entries, 32);
        assert_eq!(cfg.pipeline.sq_entries, 32);
        assert_eq!(cfg.l1i.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1d.size_bytes, 64 * 1024);
        assert_eq!(cfg.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.data_filter.size_bytes, 2 * 1024);
        assert_eq!(cfg.data_filter.ways, 4);
        assert_eq!(cfg.branch_predictor.btb_entries, 4096);
        assert_eq!(cfg.branch_predictor.ras_entries, 16);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(SystemConfig::small_test().validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_cores() {
        let mut cfg = SystemConfig::paper_default();
        cfg.cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_power_of_two_lines() {
        let mut cfg = SystemConfig::paper_default();
        cfg.line_bytes = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_sub_line_cache() {
        let mut cfg = SystemConfig::paper_default();
        cfg.data_filter = CacheConfig::new(32, 1, 1, 1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cache_geometry_is_consistent() {
        let c = CacheConfig::new(2048, 4, 1, 4);
        assert_eq!(c.num_lines(64), 32);
        assert_eq!(c.num_sets(64), 8);
        // Fully associative: ways larger than lines collapses to one set.
        let fa = CacheConfig::new(256, 64, 1, 4);
        assert_eq!(fa.num_lines(64), 4);
        assert_eq!(fa.num_sets(64), 1);
    }

    #[test]
    fn protection_presets_differ() {
        assert_ne!(
            ProtectionConfig::insecure_l0(),
            ProtectionConfig::muontrap_default()
        );
        assert!(!ProtectionConfig::insecure_l0().secure_filter);
        assert!(ProtectionConfig::muontrap_clear_on_misspeculate().clear_on_misspeculate);
        assert!(ProtectionConfig::muontrap_parallel_l1().parallel_l1_access);
    }

    #[test]
    fn config_json_covers_every_simulation_relevant_knob() {
        let json = SystemConfig::paper_default().to_json();
        for field in [
            "cores",
            "line_bytes",
            "pipeline",
            "branch_predictor",
            "l1i",
            "l1d",
            "l2",
            "data_filter",
            "inst_filter",
            "tlb",
            "filter_tlb_entries",
            "dram",
            "prefetch_degree",
            "scheduler_quantum",
            "protection",
        ] {
            assert!(json.get(field).is_some(), "missing field {field}");
        }
        // Changing any knob must change the JSON (spot-check a nested one).
        let mut swept = SystemConfig::paper_default();
        swept.protection.clear_on_misspeculate = true;
        assert_ne!(swept.to_json(), SystemConfig::paper_default().to_json());
        assert_ne!(
            SystemConfig::paper_default()
                .with_data_filter(64, 1)
                .to_json(),
            SystemConfig::paper_default().to_json()
        );
    }

    #[test]
    fn display_mentions_key_parameters() {
        let text = format!("{}", SystemConfig::paper_default());
        assert!(text.contains("ROB 192"));
        assert!(text.contains("filter caches"));
    }
}
