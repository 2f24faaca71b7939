//! Percentiles, quartiles and the request-type band rule.

/// The percentiles the benchmark may report, highest first.
pub const CANDIDATE_PERCENTILES: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` among `n >= 1` sorted
/// samples, in integer per-mille arithmetic so that, say, p99 of 1000
/// samples is exactly rank 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest of [`CANDIDATE_PERCENTILES`] with at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it; `None` when even the lowest
/// has too few (then only the median is a meaningful timing).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    CANDIDATE_PERCENTILES
        .into_iter()
        .find(|&p| n - 1 - rank(n, p) >= MIN_TAIL_SAMPLES)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// One request type of a mix: its share of requests and a typical
/// latency that orders the types.
#[derive(Debug, Clone)]
pub struct TypeBand {
    /// Request type name.
    pub name: String,
    /// Fraction of all requests, in `[0, 1]`.
    pub share: f64,
    /// Latency used to order the types (their own median).
    pub latency: f64,
}

/// The type whose latency band holds percentile `p` of the whole mix.
///
/// Types are ordered by latency; type `i` covers the cumulative share
/// interval `[lo, hi]`. The percentile's rank must lie at least `margin`
/// from every boundary *between two types* (the ends 0 and 1 are not
/// boundaries), so that run-to-run jitter in the proportions cannot move
/// the percentile from one type's latencies to another's.
pub fn band_of(types: &[TypeBand], p: f64, margin: f64) -> Result<String, String> {
    let mut ordered: Vec<&TypeBand> = types.iter().filter(|t| t.share > 0.0).collect();
    ordered.sort_by(|a, b| a.latency.total_cmp(&b.latency));
    let total: f64 = ordered.iter().map(|t| t.share).sum();
    let r = p / 100.0;
    let mut lo = 0.0;
    for (i, t) in ordered.iter().enumerate() {
        let hi = lo + t.share / total;
        let last = i + 1 == ordered.len();
        if r <= hi || last {
            let near_lo = i > 0 && r - lo < margin;
            let near_hi = !last && hi - r < margin;
            return if near_lo || near_hi {
                Err(format!(
                    "p{p} at rank {r:.3} is within {margin} of a boundary of {} [{lo:.3}, {hi:.3}]",
                    t.name
                ))
            } else {
                Ok(t.name.clone())
            };
        }
        lo = hi;
    }
    Err("no request types".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: ten samples beyond.
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    fn band(name: &str, share: f64, latency: f64) -> TypeBand {
        TypeBand {
            name: name.into(),
            share,
            latency,
        }
    }

    #[test]
    fn percentile_ranks_fall_inside_one_band() {
        let mix = [band("oltp", 0.3, 110.0), band("hit", 0.7, 60.0)];
        assert_eq!(band_of(&mix, 50.0, 0.05).unwrap(), "hit");
        // p99 lies in the top band; the end of the range is no boundary.
        assert_eq!(band_of(&mix, 99.0, 0.05).unwrap(), "oltp");
        assert_eq!(band_of(&mix, 100.0, 0.05).unwrap(), "oltp");
    }

    #[test]
    fn a_rank_near_a_type_boundary_is_rejected() {
        let mix = [band("cheap", 0.52, 1.0), band("dear", 0.48, 9.0)];
        assert!(band_of(&mix, 50.0, 0.05).is_err());
        // Just past the boundary is as bad as just before it.
        let mix = [band("cheap", 0.47, 1.0), band("dear", 0.53, 9.0)];
        assert!(band_of(&mix, 50.0, 0.05).is_err());
        // The tail type needs more than 1 % of requests plus the margin.
        let mix = [band("cheap", 0.98, 1.0), band("dear", 0.02, 9.0)];
        assert!(band_of(&mix, 99.0, 0.05).is_err());
    }

    #[test]
    fn shares_are_normalized_and_empty_types_ignored() {
        let mix = [
            band("a", 14.0, 1.0),
            band("none", 0.0, 0.5),
            band("b", 6.0, 2.0),
        ];
        assert_eq!(band_of(&mix, 50.0, 0.05).unwrap(), "a");
        assert_eq!(band_of(&mix, 99.0, 0.05).unwrap(), "b");
        assert!(band_of(&[], 50.0, 0.05).is_err());
    }
}
