//! Thread and batching invariance: a search is bit-identical whatever the
//! worker-pool width and whether branch updates are batched; and a world
//! that mixes thread counts is refused at the first sentinel sync. Each test
//! checks its route of the reproducibility matrix (`matrix/mod.rs`).

mod common;
mod matrix;
mod mixed_world;

#[test]
fn trajectory_bitwise_invariant_to_thread_count() {
    matrix::check("trajectory_bitwise_invariant_to_thread_count");
}

#[test]
fn trajectory_bitwise_invariant_to_batching() {
    matrix::check("trajectory_bitwise_invariant_to_batching");
}

#[test]
fn mixed_threads_override_trips_sentinel_at_first_sync() {
    mixed_world::refused("threads");
}
