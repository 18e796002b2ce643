//! Benchmark harness: machine builders for every evaluated system and
//! output helpers shared by the per-figure binaries.
//!
//! Each table/figure of the paper has a binary in `src/bin/` (see
//! DESIGN.md §5 for the index); run them with
//! `cargo run --release -p skyloft-bench --bin <id>`. Results are printed
//! as text tables and written as CSV by the [`driver`], which also owns
//! the command line and the `BENCH_*.json` baselines.

pub mod baseline;
pub mod build;
pub mod driver;
pub mod out;
pub mod schbench_util;

pub use driver::{fast_factor, scaled, Cli};

/// Shared experiment constants (§5's setup).
pub mod setup {
    use skyloft_sim::Nanos;

    /// Worker cores for the Figure 7 experiments (plus one dispatcher).
    pub const FIG7_WORKERS: usize = 20;
    /// Worker cores for Linux CFS in Figure 7 (no dispatcher needed).
    pub const FIG7_LINUX_WORKERS: usize = 21;
    /// Worker cores for Memcached (Figure 8a).
    pub const FIG8A_WORKERS: usize = 4;
    /// Worker cores for the RocksDB server (Figure 8b).
    pub const FIG8B_WORKERS: usize = 14;
    /// Isolated cores for schbench (Figure 5/6).
    pub const FIG5_CORES: usize = 24;
    /// The preemption quantum the paper finds best for Figure 7 (30 μs).
    pub const FIG7_QUANTUM: Nanos = Nanos::from_us(30);
    /// Default measurement seed.
    pub const SEED: u64 = 2024_1104;
}
