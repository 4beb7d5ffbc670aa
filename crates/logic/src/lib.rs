//! Two-level (sum-of-products) logic representation and minimization.
//!
//! This crate is the stand-in for the conventional two-level minimizer
//! (ESPRESSO from SIS) used by the paper's ASSASSIN flow. The central point of
//! the N-SHOT architecture is that the set/reset networks may be minimized by
//! *any* conventional minimizer, with free use of the don't-care set and with
//! product terms shared between functions — no hazard constraints at all.
//!
//! The crate provides:
//!
//! * [`Cube`] — a product term in positional-cube notation (two bits per
//!   variable packed into `u64` words);
//! * [`Cover`] — a sum of cubes with union, minterm queries and
//!   single-cube containment;
//! * [`Function`] — an incompletely specified single-output function, built
//!   from the ON, reachable don't-care and OFF codes of a state graph
//!   ([`Function::from_points`]; every other code is a don't-care). The
//!   minimizers answer their questions by scanning these codes, so no
//!   cover of the OFF- or DC-set is ever complemented;
//! * [`espresso`] — the heuristic EXPAND / IRREDUNDANT / REDUCE loop;
//! * [`minimize_exact`] — prime generation plus branch-and-bound unate
//!   covering (the ESPRESSO-exact analogue, practical for the controller-sized
//!   functions that arise from state graphs). Its primes are raised by the
//!   same EXPAND as [`espresso`]'s.
//!
//! # Example
//!
//! ```
//! use nshot_logic::{Function, espresso};
//!
//! // f(a,b) with ON = {11}, DC = {01}, OFF = {00, 10}: minimizes to the
//! // single literal `a` (bit 0 of a minterm is variable 0).
//! let f = Function::from_points(2, vec![0b11], vec![0b01], vec![0b00, 0b10]);
//! let cover = espresso(&f);
//! assert_eq!(cover.num_cubes(), 1);
//! assert_eq!(cover.literal_count(), 1);
//! ```

mod cache;
mod cover;
mod cube;
mod error;
mod espresso;
mod exact;
mod function;
mod key;
mod multi;
mod oracle;

pub use cache::{
    cache_len, cache_stats, espresso_cached, reset_cache, BoundedCache, CacheStats,
    DEFAULT_ESPRESSO_CACHE_CAP,
};
pub use cover::Cover;
pub use cube::{Cube, Polarity};
pub use error::LogicError;
pub use espresso::espresso;
pub use exact::{all_primes, minimize_exact};
pub use function::Function;
pub use key::request_key;
pub use multi::{espresso_multi, MultiCover};

#[cfg(test)]
mod proptests;
