//! Gradient-mode invariance: a search is bit-identical with `--gradient`
//! on, off or auto, under either scheme; and a world that mixes gradient
//! modes is refused at the first sentinel sync. Each test checks its route
//! of the reproducibility matrix (`matrix/mod.rs`).

mod common;
mod matrix;
mod mixed_world;

#[test]
fn decentralized_trajectory_bitwise_invariant_to_gradient_mode() {
    matrix::check("decentralized_trajectory_bitwise_invariant_to_gradient_mode");
}

#[test]
fn forkjoin_final_lnl_bitwise_invariant_to_gradient_mode() {
    matrix::check("forkjoin_final_lnl_bitwise_invariant_to_gradient_mode");
}

#[test]
fn mixed_gradient_override_trips_sentinel_at_first_sync() {
    mixed_world::refused("gradient");
}
