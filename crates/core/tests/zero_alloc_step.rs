//! A warmed-up paper-sized PPN training step takes every tensor buffer from
//! the storage arena: no arena miss, no byte from the system allocator.
//!
//! The arena parks at most 64 MiB per thread, so this holds only while one
//! step's peak of live buffers stays under that cap. The storage tests use
//! small graphs and never reach it; this test runs the real network.

use ppn_core::prelude::*;
use ppn_market::{Dataset, Preset};
use ppn_tensor::storage;

#[test]
fn warmed_up_ppn_step_allocates_nothing() {
    let ds = Dataset::load(Preset::CryptoA);
    let cfg = TrainConfig { steps: 4, batch: 16, ..TrainConfig::default() };
    let mut tr = Trainer::new(&ds, Variant::Ppn, RewardConfig::default(), cfg);
    tr.step();
    tr.step();
    let before = storage::arena_stats();
    tr.step();
    tr.step();
    let after = storage::arena_stats();
    assert_eq!(after.arena_misses - before.arena_misses, 0, "arena misses");
    assert_eq!(after.alloc_bytes - before.alloc_bytes, 0, "allocator bytes");
    assert!(after.arena_hits > before.arena_hits, "the step must use the arena");
}
