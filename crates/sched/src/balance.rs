//! Load-balance metrics for rank assignments.

use crate::RankAssignment;
use exa_bio::patterns::CompressedAlignment;
use serde::{Deserialize, Serialize};

/// Balance summary of one distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalanceStats {
    /// Patterns on the most-loaded rank (the makespan — parallel runtime is
    /// proportional to this).
    pub max_load: usize,
    /// Patterns on the least-loaded rank.
    pub min_load: usize,
    /// Mean patterns per rank.
    pub mean_load: f64,
    /// `max_load / mean_load` — 1.0 is perfect balance.
    pub imbalance: f64,
    /// Total number of (rank, partition) shares — the per-partition
    /// bookkeeping overhead cyclic distribution multiplies up.
    pub total_shares: usize,
}

/// Compute balance statistics for a distribution.
pub fn balance_stats(aln: &CompressedAlignment, assignments: &[RankAssignment]) -> BalanceStats {
    assert!(!assignments.is_empty());
    let loads: Vec<usize> = assignments.iter().map(|a| a.pattern_count(aln)).collect();
    let max_load = *loads.iter().max().unwrap();
    let min_load = *loads.iter().min().unwrap();
    let mean_load = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
    let imbalance = if mean_load > 0.0 {
        max_load as f64 / mean_load
    } else {
        1.0
    };
    let total_shares = assignments.iter().map(|a| a.shares.len()).sum();
    BalanceStats {
        max_load,
        min_load,
        mean_load,
        imbalance,
        total_shares,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{distribute, Strategy};
    use exa_bio::alignment::Alignment;
    use exa_bio::partition::PartitionScheme;
    use exa_bio::patterns::CompressedAlignment;

    fn alignment(part_lens: &[usize]) -> CompressedAlignment {
        let total: usize = part_lens.iter().sum();
        let mut rows = vec![String::new(); 4];
        for site in 0..total {
            let mut v = site;
            for row in rows.iter_mut() {
                row.push(['A', 'C', 'G', 'T'][v % 4]);
                v /= 4;
            }
        }
        let named: Vec<(String, String)> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| (format!("t{i}"), r))
            .collect();
        let refs: Vec<(&str, &str)> = named
            .iter()
            .map(|(n, r)| (n.as_str(), r.as_str()))
            .collect();
        let aln = Alignment::from_ascii(&refs).unwrap();
        CompressedAlignment::build(
            &aln,
            &PartitionScheme::from_lengths(part_lens.iter().copied()),
        )
    }

    #[test]
    fn cyclic_imbalance_is_near_one() {
        let aln = alignment(&[40, 30, 30]);
        let a = distribute(&aln, 8, Strategy::Cyclic);
        let s = balance_stats(&aln, &a);
        assert!(s.imbalance < 1.1, "{s:?}");
        assert!(s.max_load - s.min_load <= 1);
    }

    #[test]
    fn cyclic_has_many_more_shares_than_monolithic() {
        // The bookkeeping-overhead story behind MPS: with many partitions
        // and cyclic distribution, shares ~ partitions × ranks.
        let sizes: Vec<usize> = vec![12; 64];
        let aln = alignment(&sizes);
        let ranks = 8;
        let cyc = balance_stats(&aln, &distribute(&aln, ranks, Strategy::Cyclic));
        let mps = balance_stats(&aln, &distribute(&aln, ranks, Strategy::MonolithicLpt));
        assert_eq!(mps.total_shares, 64);
        assert!(
            cyc.total_shares > 4 * mps.total_shares,
            "{} vs {}",
            cyc.total_shares,
            mps.total_shares
        );
    }

    #[test]
    fn monolithic_imbalance_bounded_for_uniform_partitions() {
        let sizes: Vec<usize> = vec![10; 100];
        let aln = alignment(&sizes);
        let a = distribute(&aln, 4, Strategy::MonolithicLpt);
        let s = balance_stats(&aln, &a);
        assert!((s.imbalance - 1.0).abs() < 1e-9, "{s:?}");
    }

    #[test]
    fn mean_load_matches_total() {
        let aln = alignment(&[7, 9, 11]);
        let a = distribute(&aln, 3, Strategy::Cyclic);
        let s = balance_stats(&aln, &a);
        assert!((s.mean_load * 3.0 - aln.total_patterns() as f64).abs() < 1e-9);
    }
}
