//! # store — durable storage for the ownership register
//!
//! The paper's enterprise knowledge graph is a long-lived national asset:
//! the ownership register is loaded once, then maintained by a stream of
//! update batches for years. This crate gives the reproduction the
//! property that workload needs beyond a volatile heap:
//!
//! * **Durability** ([`DurableStore`]): every applied [`datalog::Update`]
//!   is appended to a write-ahead log of length-prefixed, CRC32-checksummed
//!   frames ([`wal`], [`frame`]) before the serving layer's epoch swap
//!   makes it visible, with an fsync-on-commit policy knob
//!   ([`FsyncPolicy`]). Periodic snapshots ([`snapshot`]) dump the full
//!   symbol table, predicate table and base relations in id/insertion
//!   order; recovery loads the newest readable snapshot and replays the
//!   WAL tail ([`replay_tail`]), rebuilding a session *byte-identical* to
//!   the pre-crash maintained database. Torn or corrupt WAL tails are
//!   truncated to the last valid prefix with a warning.
//!
//! **Removed: logical shards.** Until PR 14 this crate also
//! hash-partitioned the EDB by node while the engine bucketed each round's
//! work per shard. It was byte-identical and a measured slowdown — 0.86 /
//! 0.80 / 0.81× at 2 / 4 / 8 shards (`BENCH_store.json` as of PR 8) — so
//! it went; do not rebuild it without a multi-core measurement above 1×.

#![forbid(unsafe_code)]

pub mod frame;
pub mod snapshot;
#[allow(clippy::module_inception)]
pub mod store;
pub mod wal;

pub use frame::{FrameError, WireFact, WireUpdate, WireVal};
pub use snapshot::{read_snapshot, write_snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use store::{DurableStore, Recovery, StoreConfig, StoreError};
pub use wal::{FsyncPolicy, Wal, WalOpenError, MAX_FRAME, WAL_MAGIC};

use datalog::{DatalogError, IncrementalEngine};

/// Replays a recovered WAL tail through a freshly rebuilt incremental
/// session, in commit order. Symbols are re-interned through the session,
/// landing on their original ids because interning is append-only and the
/// snapshot already restored every symbol that existed when the frame was
/// written. Returns the number of updates applied.
pub fn replay_tail(
    session: &mut IncrementalEngine,
    tail: &[WireUpdate],
) -> Result<usize, DatalogError> {
    for wire in tail {
        let update = wire.to_update(&mut |s| session.sym(s));
        session.apply_update(&update)?;
    }
    Ok(tail.len())
}
