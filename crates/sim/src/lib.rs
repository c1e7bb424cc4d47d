//! Behavioural simulator for FPVA chips under manufacturing faults.
//!
//! The paper (Liu et al., DATE 2017) evaluates its test vectors by applying
//! them to chips with randomly injected manufacturing defects and checking
//! whether the pressure readings at the sink ports deviate from a fault-free
//! ("golden") chip. This crate is that evaluation engine:
//!
//! * [`Fault`]/[`FaultSet`] — the paper's component-level fault model:
//!   stuck-at-0 (valve cannot open: broken flow channel), stuck-at-1 (valve
//!   cannot close: leaking flow channel / broken control channel) and
//!   control-layer leakage (two valves actuate together),
//! * [`propagate`] — pressure propagation from the source ports through
//!   every passable valve site (the physical behaviour of test pressure in
//!   the flow layer),
//! * [`TestSuite`] — a vector set with pre-computed golden responses and
//!   fault-detection queries,
//! * [`campaign`] — the random multi-fault injection experiment of
//!   Section IV (10 000 trials of 1–5 faults), deterministic for every
//!   thread count via per-trial seed derivation,
//! * [`audit`] — exhaustive single-fault and pairwise two-fault coverage
//!   audits used to check the paper's two-fault detection guarantee,
//! * [`bitsim`] — the bit-parallel (PPSFP-style) simulation kernel: 64
//!   fault scenarios per `u64` word, one bitset BFS per vector that
//!   activates a fault in some undetected lane, plus the structural
//!   single-fault table (one bridge-finding DFS per vector),
//! * [`exec`] — the scoped worker pool the campaign and the pairwise
//!   audit share (fixed-size chunks, merged in chunk order, so results
//!   never depend on the thread count).
//!
//! # Architecture
//!
//! ## The determinism contract
//!
//! Campaign rows are a **pure function of `(chip, suite, config)`** —
//! byte-identical across thread counts, `fault_counts` ordering and
//! subsetting, chunk decomposition, lane packing and kernel choice. The
//! contract has three load-bearing pieces:
//!
//! 1. **Per-trial RNG derivation.** No RNG stream is ever shared: trial
//!    `i` of fault count `k` seeds its own `StdRng` with
//!    [`campaign::trial_seed`]`(seed, k, i)` (SplitMix64-style finalisers
//!    with distinct odd multipliers per coordinate), so a trial's fault
//!    set depends on nothing but its coordinates. This is what makes any
//!    `(fault_count, trial)` range independently schedulable.
//! 2. **Chunk-ordered merge.** [`exec::run_chunked`] splits an index
//!    space into *fixed-size* contiguous chunks (never derived from the
//!    thread count), lets workers claim chunks dynamically, and returns
//!    results **in chunk order**. Merging is therefore deterministic:
//!    detections add up commutatively, and keeping each chunk's first
//!    [`campaign::MAX_RECORDED_ESCAPES`] escapes and truncating the
//!    ordered concatenation yields exactly the first escapes of the whole
//!    row.
//! 3. **Precomputation outside the hot loop.** [`ObservableLeaks`] scans
//!    every ordered adjacent valve pair once per chip (so leak draws are
//!    table lookups, not BFS probes), and [`bitsim::LoweredChip`] lowers
//!    the cell adjacency once per chip into flat CSR arrays. Both are
//!    plain shared data (`Send + Sync`), built once and read by every
//!    worker; [`campaign::ChipContext`] bundles them for reuse across
//!    runs.
//!
//! ## The bit-parallel lane layout
//!
//! The default kernel ([`SimKernel::BitParallel`]) packs
//! [`bitsim::LANES`] = 64 fault scenarios into one `u64` per graph
//! element: lane `l` of the per-valve word says "scenario `l` holds this
//! valve open" (commanded state broadcast, then control-leak victims
//! cleared, then stuck-at overrides — the per-lane replica of
//! [`FaultSet::effective_states`]), and lane `l` of the per-cell word
//! says "scenario `l` pressurises this cell". One bitset BFS
//! ([`bitsim::BitFrontier`]) then floods all 64 scenarios through the
//! lowered adjacency at once — the inner loop is a word-wide AND against
//! the valve's lane word and an OR into the neighbour cell. A campaign
//! chunk packs consecutive trials into lanes (only the trailing block of
//! a row is partial), so 64 per-trial BFS traversals collapse into one.
//!
//! A vector is flooded only if it activates a fault in some
//! still-undetected lane ([`Fault::is_active`]): a lane whose faults are
//! all dormant has the golden response, so a vector on which every
//! undetected lane is dormant is answered without a flood. The pairwise
//! audit goes further: it first builds the suite's
//! [`bitsim::SingleFaultTable`] (per vector, which single stuck-at faults
//! it exposes) and answers a pair with only one active fault by lookup,
//! so only vectors on which some undetected pair has both faults active
//! are flooded. [`KernelStats`] counts both the floods (`word_passes`)
//! and the vector applications answered without one (`pruned_passes`).
//!
//! The single-fault table itself needs no flood. The flow layer is an
//! undirected graph, so a vector's single-fault answers follow from its
//! structure: a stuck-at-0 on an open valve changes a reading iff the
//! valve is a bridge of the open subgraph (plus a super-source joined to
//! every source) with a sink beyond it, and a stuck-at-1 on a closed
//! valve iff it joins the pressurised region to an unpressurised open
//! component holding a sink. One lowlink DFS and one lazy component
//! labelling per vector find both (counted in `structural_passes`). The
//! single-fault and leak audits ([`audit::single_fault_coverage`],
//! [`audit::leak_coverage`]) read their verdicts straight off that table:
//! an active control leak is exactly a stuck-at-0 on its victim.
//!
//! **Scalar-oracle invariant:** the scalar path ([`propagate`],
//! [`TestSuite::detects`], [`campaign::leak_is_observable`]) is retained
//! unchanged and is the oracle — the bit-parallel kernel must reproduce
//! its results *byte for byte* (same rows, same escapes, same
//! observable-leak table), never just statistically. Differential tests
//! (unit, integration and proptest) pin this on every Table I layout and
//! the multi-sink example chip; only [`KernelStats`] may differ between
//! kernels.
//!
//! # Example
//!
//! ```
//! use fpva_grid::{layouts, TestVector};
//! use fpva_sim::{Fault, FaultSet, TestSuite};
//!
//! # fn main() -> Result<(), fpva_sim::SimError> {
//! let fpva = layouts::table1_5x5();
//! // One all-open vector: a stuck-at-0 fault kills the pressure path.
//! let suite = TestSuite::new(&fpva, vec![TestVector::all_open(fpva.valve_count())]);
//! let fault = FaultSet::try_from_faults(vec![Fault::StuckAt0(fpva_grid::ValveId(0))])?;
//! // The 5x5 array is well connected, so one closed valve is *not*
//! // detectable by the all-open vector alone:
//! assert!(!suite.detects(&fpva, &fault));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bitsim;
pub mod campaign;
mod error;
pub mod exec;
mod fault;
mod pressure;
mod suite;

pub use audit::CoverageReport;
pub use bitsim::{
    BitFrontier, BitSimulator, KernelStats, LaneSet, LoweredChip, SimKernel, SingleFaultTable,
};
pub use campaign::{CampaignConfig, CampaignRow, ChipContext, ObservableLeaks};
pub use error::SimError;
pub use fault::{EffectiveStates, Fault, FaultSet};
pub use pressure::{propagate, respond, Pressure, Response};
pub use suite::TestSuite;
