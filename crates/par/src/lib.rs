//! Std-only parallel execution utilities for the N-SHOT workspace.
//!
//! The synthesis flow is embarrassingly parallel at two levels: each
//! non-input signal's derive → minimize → trigger-check chain is independent
//! (Section IV of the paper), and the §V hazard-freeness validation is N
//! independent Monte-Carlo trials. This crate provides the shared machinery
//! to exploit that without any external dependency:
//!
//! * [`par_map`] — a chunked, order-preserving parallel map on
//!   [`std::thread::scope`], sized from [`num_threads`] (the `NSHOT_THREADS`
//!   environment variable, a programmatic override, or
//!   `std::thread::available_parallelism`);
//! * [`fxhash`] — an FxHash-style non-cryptographic hasher replacing SipHash
//!   in hot interning maps ([`FxHashMap`], [`FxHashSet`]);
//! * [`rng`] — a small deterministic PRNG (xoshiro256** seeded via
//!   SplitMix64) standing in for the `rand` crate, which is unavailable in
//!   hermetic builds;
//! * [`prop`] — a fixed-seed deterministic property-test driver (the
//!   hermetic stand-in for the `proptest` crate) used by the per-crate
//!   `proptests.rs` test modules;
//! * [`queue`] — a bounded MPMC job queue with non-blocking admission
//!   ([`BoundedQueue::try_push`] reports `Full`/`Closed` instead of
//!   blocking), the backpressure primitive of the `nshot-server` layer.
//!
//! Everything here is deterministic by construction: `par_map` returns
//! results in input order regardless of scheduling, and the PRNG sequence
//! depends only on the seed.

pub mod fxhash;
pub mod pool;
pub mod prop;
pub mod queue;
pub mod rng;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pool::{num_threads, par_map, set_thread_override, thread_override, ThreadGuard};
pub use queue::{BoundedQueue, PushError};
pub use rng::SmallRng;
