//! Kill and restart: a run killed after N committed checkpoints dies with
//! `RunError::Killed`, leaves generations on disk, and its resume — into the
//! same configuration or another of its class (scheme, gradient mode, rank
//! count, kernel) — replays the uninterrupted run bit for bit. Each test
//! checks its route of the reproducibility matrix (`matrix/mod.rs`).

mod common;
mod matrix;

#[test]
fn kill_restart_sweep_kill_points() {
    matrix::check("kill_restart_sweep_kill_points");
}

#[test]
fn kill_restart_sweep_schemes_kernels_repeats() {
    matrix::check("kill_restart_sweep_schemes_kernels_repeats");
}

#[test]
fn kill_single_rank_then_restart_decentralized() {
    matrix::check("kill_single_rank_then_restart_decentralized");
}

#[test]
fn kill_restart_replays_psr_rates_bitwise() {
    matrix::check("kill_restart_replays_psr_rates_bitwise");
}

#[test]
fn checkpoint_resumes_across_schemes() {
    matrix::check("checkpoint_resumes_across_schemes");
}

#[test]
fn checkpoint_resumes_across_gradient_modes() {
    matrix::check("checkpoint_resumes_across_gradient_modes");
}

#[test]
fn resume_is_elastic_across_kernel_and_rank_count() {
    matrix::check("resume_is_elastic_across_kernel_and_rank_count");
}
