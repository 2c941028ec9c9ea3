//! The reproducibility matrix's own tests (`matrix/mod.rs`): its cells
//! cover every allowed pair of axis levels and every named crossing, each
//! constraint has a refused cell, and the cells no other suite's route
//! claims replay their class.

mod common;
#[macro_use]
mod matrix;

use exa_comm::ReduceChoice::Fast;
use exa_phylo::model::rates::RateModelKind::{Gamma, Psr};
use matrix::Fault::{Death, Kill, Victim};
use matrix::{allowed, allowed_levels, class_of, other, pairs, pairwise};
use matrix::{Cell, Holds, BASE, DEC, FJ, ROUTES};
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn uninterrupted_cells_replay_their_class() {
    matrix::check("uninterrupted_cells_replay_their_class");
}

#[test]
fn cells_cover_every_allowed_pair_and_every_named_crossing() {
    let covered: BTreeSet<usize> = pairwise().iter().flat_map(pairs).collect();
    let admitted: BTreeSet<usize> = allowed_levels().iter().flat_map(pairs).collect();
    assert_eq!(covered, admitted);
    assert!(pairwise().iter().all(|l| allowed(&Cell::from_levels(l))));
    let cells = matrix::cells();
    let required: [(&str, Holds); 10] = [
        ("32 ranks", |c| c.ranks == 32),
        ("4->8->2 resize", |c| c.ranks == 4 && c.resize),
        ("victim kill:2:1", |c| c.fault == Victim(1)),
        ("fork-join kill:2:0", |c| {
            c.scheme == FJ && c.fault == Victim(0)
        }),
        ("cross-gradient resume", |c| {
            c.resume_other && other(c).gradient != c.gradient
        }),
        ("elastic resume", |c| {
            let o = other(c);
            c.resume_other && o.ranks != c.ranks && o.kernel != c.kernel && o.repeats != c.repeats
        }),
        ("PSR kill/resume, fork-join", |c| {
            c.rate == Psr && c.is_kill() && c.scheme == FJ
        }),
        ("PSR x resize", |c| c.rate == Psr && c.resize),
        ("§V death x reproducible Γ", |c| {
            c.fault == Death && class_of(c) == BASE
        }),
        // A resize after a death once handed slices to the dead rank.
        ("§V death x resize x Γ", |c| {
            c.fault == Death && c.resize && c.rate == Gamma
        }),
    ];
    for (what, holds) in required {
        assert!(cells.iter().any(holds), "no cell holds {what}");
    }
    for scheme in [DEC, FJ] {
        for n in 1..=3 {
            let killed = |c: &Cell| c.scheme == scheme && c.fault == Kill(n);
            assert!(cells.iter().any(killed), "kill point {n} on {scheme:?}");
        }
        let into = |c: &Cell| c.resume_other && c.scheme == scheme && other(c).scheme != scheme;
        assert!(
            cells.iter().any(into),
            "cross-scheme resume from {scheme:?}"
        );
    }
    for (name, _) in ROUTES {
        let routed = |c: &Cell| matrix::route(c) == name;
        assert!(cells.iter().any(routed), "no cell routes to {name}");
    }
}

#[test]
fn every_constraint_has_a_refused_cell() {
    let refused = [
        ("the de-centralized scheme", cell!(scheme: FJ, resize: true)),
        ("--reduce reproducible", cell!(reduce: Fast, resize: true)),
        ("no replicas", cell!(scheme: FJ, ranks: 2, fault: Death)),
        (
            "targets the master",
            cell!(scheme: FJ, ranks: 2, fault: Victim(1)),
        ),
        ("kill:N:RANK names a rank outside", cell!(fault: Victim(1))),
        ("plan kills a rank outside", cell!(fault: Death)),
    ];
    for (why, c) in refused {
        let err = c.config(Path::new("")).validate().unwrap_err();
        assert!(err.contains(why) && !allowed(&c), "{c:?}: {err}");
    }
    assert!(
        !allowed(&cell!(resume_other: true)),
        "only a killed run resumes"
    );
}
