//! The small statistics the harness gates on. Each of these can lie
//! silently if it is off by one, so each has a unit test.

/// Repetitions every gated wall gets at least.
pub const MIN_REPS: usize = 7;
/// Repetitions after which a run stops whatever the clock says.
pub const MAX_REPS: usize = 60;

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Each wall scaled to the machine's nominal state by the reference loop
/// timed around it: `wall × nominal / reference`. A run's gated wall is the
/// median of these — a slowdown that hits the program and the reference
/// alike (the machine) cancels round by round, one that hits only the
/// program (a regression) stays in full.
pub fn scaled(walls: &[f64], references: &[f64], nominal: f64) -> Vec<f64> {
    assert_eq!(walls.len(), references.len(), "one reference per wall");
    walls
        .iter()
        .zip(references)
        .map(|(w, r)| w * nominal / r)
        .collect()
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest sample such that
/// at least `p` % of the samples are ≤ it. Returned with the sample count
/// so a reader can tell a p90 of 300 samples from a p90 of 3.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside 0..=100");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    (v[rank.clamp(1, v.len()) - 1], v.len())
}

/// The stopping rule: never before `min_reps`; then when the time budget
/// is spent, or at `MAX_REPS`. The budget is always used in full — a run
/// that stops as soon as its numbers look settled stops inside whatever
/// phase the machine was in when it started.
pub fn enough_reps(n: usize, min_reps: usize, budget_spent: bool) -> bool {
    n >= min_reps && (budget_spent || n >= MAX_REPS)
}

/// `(median − min) / min` in percent: how far a typical repetition sat
/// above the floor during this invocation.
pub fn spread_pct(xs: &[f64]) -> f64 {
    100.0 * (median(xs) - min(xs)) / min(xs)
}

/// The invocation's own noise floor: the median of the odd-numbered rounds
/// against the median of the even-numbered rounds, as a percentage of the
/// smaller one. Two interleaved halves of one run of one binary — any
/// difference is the machine.
pub fn aa_split_pct(xs: &[f64]) -> f64 {
    let half = |parity: usize| -> Vec<f64> {
        xs.iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &x)| x)
            .collect()
    };
    let (even, odd) = (half(0), half(1));
    if even.is_empty() || odd.is_empty() {
        return 0.0;
    }
    let (a, b) = (median(&even), median(&odd));
    100.0 * (a - b).abs() / a.min(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_reports_its_count() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), (5.0, 10));
        assert_eq!(percentile(&xs, 90.0), (9.0, 10));
        assert_eq!(percentile(&xs, 91.0), (10.0, 10));
        assert_eq!(percentile(&xs, 100.0), (10.0, 10));
        assert_eq!(percentile(&xs, 0.0), (1.0, 10));
        // Order of arrival must not matter, and a single sample is every
        // percentile of itself.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), (2.0, 3));
        assert_eq!(percentile(&[7.5], 90.0), (7.5, 1));
    }

    #[test]
    fn median_of_even_count_averages_the_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn scaling_cancels_the_machine_and_keeps_the_program() {
        let walls = [0.50, 0.60, 0.55];
        let refs = [80.0, 96.0, 88.0];
        let base = median(&scaled(&walls, &refs, 80.0));
        assert!((base - 0.50).abs() < 1e-12, "{base}");
        // The machine 30 % slower in one round, 10 % in another: no change.
        let slow_walls = [0.50 * 1.3, 0.60, 0.55 * 1.1];
        let slow_refs = [80.0 * 1.3, 96.0, 88.0 * 1.1];
        let slow = median(&scaled(&slow_walls, &slow_refs, 80.0));
        assert!((slow - base).abs() < 1e-12, "{slow}");
        // The program 20 % slower on an unchanged machine: 20 % more.
        let regressed: Vec<f64> = walls.iter().map(|w| w * 1.2).collect();
        let worse = median(&scaled(&regressed, &refs, 80.0));
        assert!((worse / base - 1.2).abs() < 1e-12, "{worse}");
    }

    #[test]
    fn stopping_rule_needs_min_reps_then_the_budget_or_the_cap() {
        // The clock never cuts below the minimum count ...
        assert!(!enough_reps(MIN_REPS - 1, MIN_REPS, true));
        // ... and a run with budget left keeps going past it.
        assert!(!enough_reps(MIN_REPS, MIN_REPS, false));
        assert!(enough_reps(MIN_REPS, MIN_REPS, true));
        // The cap ends a run of very short repetitions.
        assert!(!enough_reps(MAX_REPS - 1, MIN_REPS, false));
        assert!(enough_reps(MAX_REPS, MIN_REPS, false));
    }

    #[test]
    fn aa_split_compares_interleaved_halves() {
        // even rounds: 1.0, 1.0 -> median 1.0; odd rounds: 1.2, 1.0 -> median 1.1
        let pct = aa_split_pct(&[1.0, 1.2, 1.0, 1.0]);
        assert!((pct - 10.0).abs() < 1e-9, "{pct}");
        assert_eq!(aa_split_pct(&[1.0]), 0.0);
    }

    #[test]
    fn spread_is_median_over_min() {
        let pct = spread_pct(&[1.0, 1.2, 1.1]);
        assert!((pct - 10.0).abs() < 1e-9, "{pct}");
    }
}
