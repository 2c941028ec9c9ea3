//! The spin-then-park rendezvous from the outside: no wake-up is lost over
//! hundreds of thousands of generations, with and without more ranks than
//! cores, and the accounting is what it was before the protocol changed.

use exa_comm::{BinnedSum, CommCategory, CommStats, OpKind, Rank, World};
use std::sync::mpsc;
use std::time::Duration;

/// Run `f` on its own thread and fail — instead of hanging the suite — when
/// it has not returned within `ceiling`. A lost wake-up is a rank asleep
/// forever, so only a watchdog can turn it into a test failure.
fn within<T: Send + 'static>(ceiling: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(ceiling)
        .unwrap_or_else(|_| panic!("world still running after {ceiling:?}: a rank is stuck"))
}

/// One round of the mixed stress: which collective depends on the round, so
/// consecutive generations differ in kind, payload and root.
fn mixed_round(rank: &Rank, round: usize) -> f64 {
    let n = rank.active_ranks().len();
    match round % 3 {
        0 => {
            let mut d = [round as f64, rank.id() as f64, 1.0];
            rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
                .unwrap();
            assert_eq!(d[0], (round * n) as f64);
            assert_eq!(d[1], (n * (n - 1) / 2) as f64);
            d[2]
        }
        1 => {
            rank.barrier(CommCategory::Control).unwrap();
            0.0
        }
        _ => {
            let root = round % n;
            let mut b = if rank.id() == root {
                (round as u64).to_le_bytes().to_vec()
            } else {
                Vec::new()
            };
            rank.broadcast_bytes(root, &mut b, CommCategory::TraversalDescriptor)
                .unwrap();
            assert_eq!(b, (round as u64).to_le_bytes());
            0.0
        }
    }
}

#[test]
fn two_ranks_survive_200k_mixed_rounds() {
    const ROUNDS: usize = 200_000;
    let sums = within(Duration::from_secs(240), || {
        World::run(2, |rank| {
            (0..ROUNDS)
                .map(|round| mixed_round(&rank, round))
                .sum::<f64>()
        })
    });
    // Every third round is an allreduce whose third element sums 1.0 × 2.
    let allreduces = ROUNDS.div_ceil(3);
    assert_eq!(sums, vec![2.0 * allreduces as f64; 2]);
}

#[test]
fn oversubscribed_world_survives_2k_mixed_rounds() {
    // 32 ranks on however few cores the machine has: the spin is skipped
    // and every generation goes through park + wake.
    const ROUNDS: usize = 2_000;
    let sums = within(Duration::from_secs(240), || {
        World::run(32, |rank| {
            (0..ROUNDS)
                .map(|round| mixed_round(&rank, round))
                .sum::<f64>()
        })
    });
    let allreduces = ROUNDS.div_ceil(3);
    assert_eq!(sums, vec![32.0 * allreduces as f64; 32]);
}

/// Every operation of the API once, with payload sizes that differ per
/// rank where the API allows it, plus modeled traffic.
fn scripted_sequence(rank: &Rank) -> CommStats {
    let id = rank.id();
    let mut d = vec![1.0; 3];
    rank.allreduce_sum(&mut d, CommCategory::SiteLikelihoods)
        .unwrap();
    let mut d = vec![1.0; 2];
    rank.reduce_sum(1, &mut d, CommCategory::BranchLength)
        .unwrap();
    rank.collective(CommCategory::ModelParams)
        .allreduce_binned(vec![BinnedSum::new(); 4])
        .unwrap();
    rank.collective(CommCategory::BranchLength)
        .root(2)
        .reduce_binned(vec![BinnedSum::new(); 7])
        .unwrap();
    let mut b = if id == 2 { vec![7u8; 100] } else { Vec::new() };
    // Receivers pass another category: the root's is authoritative.
    let category = if id == 2 {
        CommCategory::TraversalDescriptor
    } else {
        CommCategory::Control
    };
    rank.broadcast_bytes(2, &mut b, category).unwrap();
    rank.gather_bytes(1, vec![id as u8; id + 1], CommCategory::Control)
        .unwrap();
    rank.allgather_bytes(vec![id as u8; 2 * id + 1], CommCategory::Control)
        .unwrap();
    rank.barrier(CommCategory::Control).unwrap();
    if id == 0 {
        rank.account(CommCategory::Control, OpKind::Scatter, 4096);
    }
    rank.barrier(CommCategory::Control).unwrap();
    rank.stats()
}

#[test]
fn stats_of_a_scripted_sequence_are_unchanged() {
    // Serialized `CommStats` the mutex + condvar communicator (parent of
    // the spin-then-park change) reported for this sequence, less the f64
    // broadcast (ModelParams, 40 B) and the 60-byte scatter the sequence
    // ran while the communicator still had them.
    const BEFORE: &str = r#"{"per_category":[{"regions":2,"bytes":72},{"regions":1,"bytes":24},{"regions":1,"bytes":32},{"regions":1,"bytes":100},{"regions":5,"bytes":4111}],"per_kind":[2,2,1,1,1,1,2]}"#;
    let stats = World::run(3, |rank| scripted_sequence(&rank));
    for s in &stats {
        assert_eq!(serde_json::to_string(s).unwrap(), BEFORE);
    }
}
