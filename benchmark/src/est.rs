//! Estimators and the `/metrics` reader.
//!
//! Everything here is a pure function over numbers or exposition text, so
//! the unit tests below pin each estimator on hand-computed inputs.

/// Nearest-rank percentile over exact samples: the smallest sample with at
/// least `q` of the samples at or below it (`rank = ⌈q·n⌉`, 1-based).
/// Sorts in place. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median as the mean of the two middle order statistics (the estimator
/// used for repeated set-ups, restarts and kernel reps, where n is small
/// and even counts occur).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Slice rates of one closed-loop connection: `marks[i]` is the time (s)
/// at which the connection finished slice `i` (`marks[0]` = start), each
/// slice being `work_per_slice` units.
pub fn slice_rates(marks: &[f64], work_per_slice: f64) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| work_per_slice / (w[1] - w[0]).max(1e-9))
        .collect()
}

/// `(max − min) / median` of a set of values; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// One scrape of the child's Prometheus exposition.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    text: String,
}

impl Scrape {
    /// Wraps exposition text.
    pub fn new(text: String) -> Scrape {
        Scrape { text }
    }

    fn samples<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.text.lines().filter_map(move |line| {
            let rest = line.strip_prefix(name)?;
            // The next byte must end the metric name.
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            // Histogram buckets carry an exemplar suffix after " # ".
            let rest = rest.split(" # ").next()?;
            let (labels, value) = rest.rsplit_once(' ')?;
            Some((labels, value.parse::<f64>().ok()?))
        })
    }

    /// Sum of every series of `name` (per-shard counters).
    pub fn sum(&self, name: &str) -> f64 {
        self.samples(name).map(|(_, v)| v).sum()
    }

    /// Sum of the series of `name` whose label set contains `label`.
    pub fn sum_where(&self, name: &str, label: &str) -> f64 {
        self.samples(name)
            .filter(|(labels, _)| labels.contains(label))
            .map(|(_, v)| v)
            .sum()
    }

    /// Every series of `name`, in exposition order (per-shard gauges).
    pub fn each(&self, name: &str) -> Vec<f64> {
        self.samples(name).map(|(_, v)| v).collect()
    }

    /// Cumulative histogram of `name` summed over its series:
    /// `(upper bound in seconds, count at or below)`, ascending, ending
    /// at `+Inf`. The exposition stops each series at its highest occupied
    /// bucket, so a series contributes its total to every bound above that.
    pub fn histogram(&self, name: &str) -> Vec<(f64, f64)> {
        let bucket = format!("{name}_bucket");
        let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
        for (labels, count) in self.samples(&bucket) {
            let Some((head, le)) = labels.trim_end_matches("\"}").rsplit_once("le=\"") else {
                continue;
            };
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::NAN)
            };
            match series.iter_mut().find(|(key, _)| key == head) {
                Some((_, points)) => points.push((bound, count)),
                None => series.push((head.to_string(), vec![(bound, count)])),
            }
        }
        let mut bounds: Vec<f64> = series
            .iter()
            .flat_map(|(_, points)| points.iter().map(|p| p.0))
            .filter(|b| !b.is_nan())
            .collect();
        bounds.sort_unstable_by(f64::total_cmp);
        bounds.dedup();
        bounds
            .into_iter()
            .map(|bound| {
                let total = series
                    .iter()
                    .map(|(_, points)| {
                        points
                            .iter()
                            .filter(|p| p.0 <= bound)
                            .map(|p| p.1)
                            .fold(0.0, f64::max)
                    })
                    .sum();
                (bound, total)
            })
            .collect()
    }
}

/// Quantile (seconds) of the samples a histogram gained between two
/// scrapes, interpolated linearly inside the bucket that holds the rank.
/// Returns `(quantile, samples in the window)`.
pub fn histogram_delta_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> (f64, u64) {
    let at = |hist: &[(f64, f64)], bound: f64| {
        hist.iter()
            .filter(|p| p.0 <= bound)
            .map(|p| p.1)
            .fold(0.0, f64::max)
    };
    let delta: Vec<(f64, f64)> = after
        .iter()
        .map(|&(bound, count)| (bound, count - at(before, bound)))
        .collect();
    let total = delta.last().map_or(0.0, |p| p.1);
    if total <= 0.0 {
        return (0.0, 0);
    }
    let rank = q * total;
    let mut lower = (0.0, 0.0);
    for &(bound, cumulative) in &delta {
        if cumulative >= rank {
            if bound.is_infinite() {
                return (lower.0, total as u64);
            }
            let inside = (cumulative - lower.1).max(1e-12);
            return (
                lower.0 + (bound - lower.0) * (rank - lower.1) / inside,
                total as u64,
            );
        }
        lower = (bound, cumulative);
    }
    (lower.0, total as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_on_hand_computed_inputs() {
        let mut v = vec![15.0, 20.0, 35.0, 40.0, 50.0];
        // ⌈0.5·5⌉ = 3rd, ⌈0.3·5⌉ = 2nd, ⌈0.99·5⌉ = 5th, ⌈0.2·5⌉ = 1st.
        assert_eq!(percentile(&mut v, 0.5), 35.0);
        assert_eq!(percentile(&mut v, 0.3), 20.0);
        assert_eq!(percentile(&mut v, 0.99), 50.0);
        assert_eq!(percentile(&mut v, 0.2), 15.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        // ⌈0.5·4⌉ = 2nd smallest: nearest rank does not average.
        assert_eq!(percentile(&mut even, 0.5), 2.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // Four slices of 100 units: 1 s, 1 s, 5 s (a stall), 1 s.
        let rates = slice_rates(&[0.0, 1.0, 2.0, 7.0, 8.0], 100.0);
        assert_eq!(rates, vec![100.0, 100.0, 20.0, 100.0]);
        assert_eq!(median(&rates), 100.0);
        // (max − min)/median = (100 − 20)/100.
        assert!((spread(&rates) - 0.8).abs() < 1e-12);
    }

    const EXPOSITION: &str = "\
# HELP hp_feedbacks_ingested_total x
hp_feedbacks_ingested_total{shard=\"0\"} 7
hp_feedbacks_ingested_total{shard=\"1\"} 5
hp_feedbacks_ingested_totally_different 100
hp_edge_responses_total{status=\"200\"} 9
hp_edge_responses_total{status=\"503\"} 2
hp_w_seconds_bucket{shard=\"0\",le=\"0.001\"} 1 # {trace_id=\"ab\"} 0.0004
hp_w_seconds_bucket{shard=\"0\",le=\"+Inf\"} 1
hp_w_seconds_bucket{shard=\"1\",le=\"0.001\"} 2
hp_w_seconds_bucket{shard=\"1\",le=\"0.004\"} 6
hp_w_seconds_bucket{shard=\"1\",le=\"+Inf\"} 6
";

    #[test]
    fn scrape_sums_series_and_respects_name_boundaries() {
        let scrape = Scrape::new(EXPOSITION.to_string());
        assert_eq!(scrape.sum("hp_feedbacks_ingested_total"), 12.0);
        assert_eq!(scrape.each("hp_feedbacks_ingested_total"), vec![7.0, 5.0]);
        assert_eq!(
            scrape.sum_where("hp_edge_responses_total", "status=\"503\""),
            2.0
        );
        assert_eq!(scrape.sum("hp_absent"), 0.0);
    }

    #[test]
    fn histogram_merges_series_that_stop_at_different_buckets() {
        let scrape = Scrape::new(EXPOSITION.to_string());
        // Shard 0 stops at 0.001 with 1 sample; it still counts at 0.004.
        assert_eq!(
            scrape.histogram("hp_w_seconds"),
            vec![(0.001, 3.0), (0.004, 7.0), (f64::INFINITY, 7.0)]
        );
    }

    #[test]
    fn delta_quantile_interpolates_inside_the_bucket() {
        let before = vec![(0.001, 1.0), (f64::INFINITY, 1.0)];
        let after = vec![(0.001, 3.0), (0.004, 7.0), (f64::INFINITY, 7.0)];
        // Window gained 2 samples ≤ 1 ms and 4 in (1, 4] ms: 6 in total.
        // Rank 3 is the first of the four in (1 ms, 4 ms]: 1 + 3·(1/4).
        let (p50, n) = histogram_delta_quantile(&before, &after, 0.5);
        assert_eq!(n, 6);
        assert!((p50 - 0.00175).abs() < 1e-12, "{p50}");
        assert_eq!(histogram_delta_quantile(&after, &after, 0.5), (0.0, 0));
    }
}
