//! Order statistics and the multi-worker load formulas used by the fleet
//! workload's per-layer metrics.

/// Nearest-rank percentile (`q` in `[0, 1]`) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `xs` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Per-worker, per-round loads under `ShardPool`'s round-robin deal:
/// worker `w` of `workers` owns cells `w, w + workers, …`.
///
/// `cell_rounds[c][r]` is cell `c`'s serial time in barrier round `r`;
/// the result is `loads[w][r]`. Cells with fewer rounds contribute nothing
/// to the missing ones.
pub fn dealt_loads(cell_rounds: &[Vec<f64>], workers: usize) -> Vec<Vec<f64>> {
    let workers = workers.max(1);
    let rounds = cell_rounds.iter().map(Vec::len).max().unwrap_or(0);
    let mut loads = vec![vec![0.0; rounds]; workers];
    for (c, times) in cell_rounds.iter().enumerate() {
        for (r, t) in times.iter().enumerate() {
            loads[c % workers][r] += t;
        }
    }
    loads
}

/// Busiest worker's total load over the mean worker's total (1 = even).
pub fn worker_imbalance(loads: &[Vec<f64>]) -> f64 {
    let totals: Vec<f64> = loads.iter().map(|w| w.iter().sum()).collect();
    let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
    let max = totals.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Total time workers idle at barriers: in every round each worker waits
/// for the round's busiest worker. Summed over workers and rounds, in the
/// unit of `loads`.
pub fn barrier_wait(loads: &[Vec<f64>]) -> f64 {
    let rounds = loads.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .map(|r| {
            let round: Vec<f64> = loads
                .iter()
                .map(|w| w.get(r).copied().unwrap_or(0.0))
                .collect();
            let slowest = round.iter().copied().fold(0.0, f64::max);
            round.iter().map(|l| slowest - l).sum::<f64>()
        })
        .sum()
}

/// Share of `workers × wall` that serial stepping work would fill.
pub fn parallel_efficiency(serial_total: f64, workers: usize, wall: f64) -> f64 {
    serial_total / (workers.max(1) as f64 * wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    /// Three cells, two rounds, dealt to two workers: worker 0 owns cells
    /// 0 and 2, worker 1 owns cell 1.
    #[test]
    fn load_formulas_on_synthetic_cells() {
        let cells = vec![vec![1.0, 2.0], vec![4.0, 1.0], vec![1.0, 1.0]];
        let loads = dealt_loads(&cells, 2);
        assert_eq!(loads, vec![vec![2.0, 3.0], vec![4.0, 1.0]]);
        // Totals 5 and 5: perfectly balanced overall...
        assert_eq!(worker_imbalance(&loads), 1.0);
        // ...but round 0 idles worker 0 for 2 and round 1 idles worker 1
        // for 2.
        assert_eq!(barrier_wait(&loads), 4.0);
        // 10 units of serial work on 2 workers over a wall of 7 (the
        // per-round maxima 4 + 3).
        assert!((parallel_efficiency(10.0, 2, 7.0) - 10.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn one_worker_never_waits() {
        let cells = vec![vec![1.0, 5.0], vec![2.0, 0.5]];
        let loads = dealt_loads(&cells, 1);
        assert_eq!(loads, vec![vec![3.0, 5.5]]);
        assert_eq!(worker_imbalance(&loads), 1.0);
        assert_eq!(barrier_wait(&loads), 0.0);
    }

    #[test]
    fn all_work_on_one_worker_is_maximally_imbalanced() {
        let cells = vec![vec![6.0], vec![0.0], vec![0.0]];
        let loads = dealt_loads(&cells, 3);
        assert_eq!(worker_imbalance(&loads), 3.0);
        assert_eq!(barrier_wait(&loads), 12.0);
    }
}
