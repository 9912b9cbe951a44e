//! Statistics helpers: medians, quartiles, the tail-percentile rule, Zipf
//! row choice and open-loop due-time latency.

use std::time::Duration;

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spread printed here matches the one computed over whole runs. `None`
/// below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let s = sorted(xs);
    let n = 4usize;
    let m = s.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / n).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Number of samples strictly beyond the nearest-rank `p`-quantile of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `xs`, but only when at
/// least [`MIN_BEYOND_TAIL`] samples lie beyond it; `Err` names the
/// shortfall otherwise.
pub fn tail(xs: &[f64], p: f64) -> Result<f64, String> {
    let have = beyond(xs.len(), p);
    if have < MIN_BEYOND_TAIL {
        return Err(format!(
            "p{} of {} samples has {have} beyond it (need {MIN_BEYOND_TAIL})",
            p * 100.0,
            xs.len()
        ));
    }
    Ok(sorted(xs)[nearest_rank(xs.len(), p) - 1])
}

/// 1-based nearest rank `ceil(p·n)` (at least 1).
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `median [q1, q3] (n=…)` for a sample set, the way every timing is
/// printed in the human-readable report.
pub fn describe(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, _, q3]) => format!("median {} [q1 {q1}, q3 {q3}] (n={})", median(xs), xs.len()),
        None if xs.is_empty() => "no samples".into(),
        None => format!("{} (n=1)", xs[0]),
    }
}

/// Cumulative distribution of a Zipf(`s`) law over ranks `1..=n`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            acc += (rank as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The 0-based rank a uniform draw `u ∈ [0, 1)` selects from `cdf`.
pub fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Open-loop latency of one request: from when it was *due* to when its
/// reply was complete, both as offsets from the schedule's start. A request
/// sent late because the server was busy is charged that wait; a request
/// completing early (impossible by construction) is clamped to zero.
pub fn due_latency_s(due: Duration, done: Duration) -> f64 {
    done.saturating_sub(due).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[5.0, 9.0]), Some([4.0, 7.0, 10.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_median_agrees_with_median() {
        let xs = [0.3, 9.1, 4.4, 4.5, 1.0, 7.7, 2.2];
        assert_eq!(quartiles(&xs).unwrap()[1], median(&xs));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail(&xs, 0.99), Ok(990.0));
        // 999 samples leave only 9 beyond p99.
        assert!(tail(&xs[..999], 0.99).is_err());
        // p99.9 of 1000 samples leaves 1.
        assert!(tail(&xs, 0.999).is_err());
        // p90 of 100 samples is allowed (10 beyond), p95 is not (5).
        assert_eq!(tail(&xs[..100], 0.90), Ok(90.0));
        assert!(tail(&xs[..100], 0.95).is_err());
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs, 0.99), Ok(1980.0));
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_all() {
        let cdf = zipf_cdf(100, 1.1);
        assert!((cdf[99] - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(zipf_pick(&cdf, 0.0), 0);
        assert_eq!(zipf_pick(&cdf, cdf[0]), 1);
        assert_eq!(zipf_pick(&cdf, 0.999_999_999), 99);
        // Rank 1 alone carries more mass than ranks 50..100 together.
        assert!(cdf[0] > 1.0 - cdf[49]);
    }

    #[test]
    fn due_latency_counts_the_wait_behind_a_stall() {
        let ms = Duration::from_millis;
        // Sent on time, served in 1 ms.
        assert_eq!(due_latency_s(ms(100), ms(101)), 0.001);
        // Due at 100 ms but stuck behind a 50 ms tick that began at 90 ms:
        // served from 140 ms, done at 141 ms — charged 41 ms, not 1 ms.
        assert!((due_latency_s(ms(100), ms(141)) - 0.041).abs() < 1e-12);
        // Never negative.
        assert_eq!(due_latency_s(ms(100), ms(99)), 0.0);
    }
}
