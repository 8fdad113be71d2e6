//! Conformance gate: machine-checks that the simulated population still
//! reproduces the paper.
//!
//! Three layers, all wired into `repro conform [--quick]`:
//!
//! 1. **Golden statistics** ([`golden`], [`metrics`]): assert every
//!    paper-reproducible statistic (Table 1 failure rates,
//!    feature/datatype shares, bitflip structure, temperature curves,
//!    Farron eval deltas) against the checked-in
//!    [`GOLDEN.json`](https://example.invalid) with explicit per-metric
//!    tolerance bands. The caller hands [`collect_metrics`] the campaign,
//!    deep study and evaluation it already ran (`repro` reads them off
//!    its one session, so the gate re-runs none of them);
//!    [`metrics::campaign_config`], [`metrics::study_config`],
//!    [`metrics::table4_config`] and [`metrics::eval_config`] are the
//!    single source of those runs' configs.
//! 2. **Differential softcore oracle** ([`oracle`], [`mod@reference`]):
//!    property-based instruction streams executed both on a defect-free
//!    [`softcore::Machine`] and on an independent pure-Rust reference
//!    semantics; divergences are minimized to a shrunk repro case.
//! 3. **Metamorphic invariants** ([`metamorphic`]): population-scale
//!    invariance, defect-mask monotonicity, and chaos / checkpoint /
//!    thread-count transparency, folded into one reusable
//!    [`metamorphic::assert_transparent`] helper.

pub mod golden;
pub mod metamorphic;
pub mod metrics;
pub mod oracle;
pub mod reference;

pub use golden::{
    golden_file, ConformanceReport, GoldenFile, GoldenMetric, GoldenSet, MetricCheck,
};
pub use metrics::{collect_metrics, Metric};
pub use oracle::{Divergence, OracleConfig, SweepOutcome};
