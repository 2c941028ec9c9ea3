//! Rank-count and scheme invariance: under `--reduce reproducible` a search
//! is bit-identical on any number of ranks, under either scheme and across a
//! mid-run resize; and a world that mixes reduce modes is refused at the
//! first sentinel sync. Each test checks its route of the reproducibility
//! matrix (`matrix/mod.rs`).

mod common;
mod matrix;
mod mixed_world;

#[test]
fn decentralized_trajectory_bitwise_invariant_to_rank_count() {
    matrix::check("decentralized_trajectory_bitwise_invariant_to_rank_count");
}

#[test]
fn forkjoin_search_bitwise_invariant_to_rank_count() {
    matrix::check("forkjoin_search_bitwise_invariant_to_rank_count");
}

#[test]
fn schemes_agree_bitwise_under_reproducible_reduce() {
    matrix::check("schemes_agree_bitwise_under_reproducible_reduce");
}

#[test]
fn midrun_resize_grow_and_shrink_preserves_trajectory() {
    matrix::check("midrun_resize_grow_and_shrink_preserves_trajectory");
}

#[test]
fn mixed_reduce_override_trips_sentinel_at_first_sync() {
    mixed_world::refused("reduce");
}
