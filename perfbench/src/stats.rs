//! Sampling, the percentile rule and the cost-ladder arithmetic.

/// A uniform systematic sample of at most `cap` values from a stream of
/// unknown length: every value until the buffer is full, then every
/// second, fourth, ... value, thinning what is kept to match.  Memory stays
/// fixed however fast the program under test runs, so a faster program
/// does not show up as a larger resident set.
#[derive(Debug, Clone)]
pub struct Sampler<T> {
    buf: Vec<T>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl<T: Copy> Sampler<T> {
    /// A sampler keeping at most `cap` (even, at least 2) values.  The
    /// buffer is written once with `fill` so its pages are resident before
    /// any memory baseline is read.
    pub fn new(cap: usize, fill: T) -> Sampler<T> {
        assert!(
            cap >= 2 && cap.is_multiple_of(2),
            "sampler capacity must be even"
        );
        let mut buf = vec![fill; cap];
        buf.clear();
        Sampler {
            buf,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers one value to the sample.
    pub fn push(&mut self, value: T) {
        if self.seen.is_multiple_of(self.stride) {
            if self.buf.len() == self.cap {
                let kept = self.buf.len().div_ceil(2);
                for i in 0..kept {
                    self.buf[i] = self.buf[2 * i];
                }
                self.buf.truncate(kept);
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.buf.push(value);
            }
        }
        self.seen += 1;
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The values kept.
    pub fn values(&self) -> &[T] {
        &self.buf
    }
}

/// The `q`-quantile of ascending `sorted` by nearest rank, or `None` when
/// fewer than ten samples lie above it: a percentile is only reported with
/// that much support (p99 needs at least 1000 samples).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Samples per stretch for [`stretch_quantile`]: the fewest that leave ten
/// samples beyond a p99.
pub const STRETCH: usize = 1000;

/// The `q`-quantile of time-ordered `series`, taken as the lower quartile
/// over consecutive stretches of at least [`STRETCH`] samples of each
/// series of the stretch's own [`quantile`].  Interference from outside
/// the program that lasts up to three quarters of the run moves the
/// stretches it falls in, not the result; a change to the program moves
/// every stretch.  Returns the value and the number of stretches, or
/// `None` when no stretch supports the quantile.
pub fn stretch_quantile(series: &[&[f64]], q: f64) -> Option<(f64, usize)> {
    let mut per = Vec::new();
    for s in series {
        let k = s.len() / STRETCH;
        for i in 0..k {
            let mut stretch = s[i * s.len() / k..(i + 1) * s.len() / k].to_vec();
            stretch.sort_by(f64::total_cmp);
            per.extend(quantile(&stretch, q));
        }
    }
    per.sort_by(f64::total_cmp);
    let rank = per.len().div_ceil(4);
    (!per.is_empty()).then(|| (per[rank - 1], per.len()))
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One rung's replay cost, in ns per key operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungCost {
    /// Reads (`contains`, `batch_contains`).
    pub read_ns: f64,
    /// Writes (`insert`, `remove` and their batch forms).
    pub write_ns: f64,
    /// Every key operation of the trace.
    pub all_ns: f64,
}

/// Each rung's marginal cost: its `all_ns` minus the rung below's; the
/// bottom rung's marginal is its own cost.
pub fn marginals(rungs: &[RungCost]) -> Vec<f64> {
    let mut below = 0.0;
    rungs
        .iter()
        .map(|r| {
            let m = r.all_ns - below;
            below = r.all_ns;
            m
        })
        .collect()
}

/// [`marginals`] for a chain with one side rung at index `side` (at least
/// 1): the chain's rungs take the rung below them on the chain, skipping
/// the side rung, and the side rung takes the rung just before it.
pub fn side_marginals(rungs: &[RungCost], side: usize) -> Vec<f64> {
    let mut chain = rungs.to_vec();
    let branch = chain.remove(side);
    let mut m = marginals(&chain);
    m.insert(side, branch.all_ns - rungs[side - 1].all_ns);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let sorted: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.99), None);
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.99), Some(990.0));
        assert_eq!(quantile(&sorted, 0.5), Some(500.0));
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(quantile(&few, 0.5), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&twenty, 0.5), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn stretch_quantile_ignores_a_burst_in_one_stretch() {
        // Three stretches of 1000: steady 1..=1000 each, but the second
        // stretch's top 50 samples are hit by a burst.
        let mut s: Vec<f64> = Vec::new();
        for stretch in 0..3 {
            for i in 1..=1000 {
                let burst = stretch == 1 && i > 950;
                s.push(if burst { 1e6 } else { f64::from(i) });
            }
        }
        let mut all = s.clone();
        all.sort_by(f64::total_cmp);
        assert_eq!(quantile(&all, 0.99), Some(1e6));
        assert_eq!(stretch_quantile(&[&s], 0.99), Some((990.0, 3)));
        assert_eq!(stretch_quantile(&[&s[..999]], 0.99), None);
        let two = [&s[..1000], &s[2000..]];
        assert_eq!(stretch_quantile(&two, 0.99), Some((990.0, 2)));
    }

    #[test]
    fn stretch_quantile_ignores_interference_in_three_quarters_of_the_run() {
        // Eight stretches of 1..=1000; in six of them every sample is
        // delayed by 500.
        let s: Vec<f64> = (0..8)
            .flat_map(|stretch| {
                (1..=1000).map(move |i| f64::from(i) + if stretch < 6 { 500.0 } else { 0.0 })
            })
            .collect();
        assert_eq!(stretch_quantile(&[&s], 0.99), Some((990.0, 8)));
        // A slower program moves every stretch, and the result with them.
        let slower: Vec<f64> = s.iter().map(|x| x * 2.0).collect();
        assert_eq!(stretch_quantile(&[&slower], 0.99), Some((1980.0, 8)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ladder_marginals_are_differences_from_the_rung_below() {
        let rung = |all_ns| RungCost {
            read_ns: 0.0,
            write_ns: 0.0,
            all_ns,
        };
        let m = marginals(&[rung(10.0), rung(15.0), rung(12.0), rung(40.0)]);
        assert_eq!(m, vec![10.0, 5.0, -3.0, 28.0]);
        // The marginals telescope back to the top rung's cost.
        assert_eq!(m.iter().sum::<f64>(), 40.0);
        assert!(marginals(&[]).is_empty());
    }

    #[test]
    fn side_rung_marginal_is_taken_from_the_rung_it_branches_off() {
        let rung = |all_ns| RungCost {
            read_ns: 0.0,
            write_ns: 0.0,
            all_ns,
        };
        // Chain 10 -> 15 -> 19 -> 30, with a side rung of 12 after 15.
        let m = side_marginals(
            &[rung(10.0), rung(15.0), rung(12.0), rung(19.0), rung(30.0)],
            2,
        );
        assert_eq!(m, vec![10.0, 5.0, -3.0, 4.0, 11.0]);
        // Without the side rung the marginals telescope to the top rung.
        assert_eq!(m[0] + m[1] + m[3] + m[4], 30.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn sampler_keeps_a_uniform_stride() {
        let mut s = Sampler::new(4, 0u64);
        for v in 0..9 {
            s.push(v);
        }
        // Stride 4 after two thinnings: every multiple of 4 seen so far.
        assert_eq!(s.values(), &[0, 4, 8]);
        assert_eq!(s.seen(), 9);
        let mut s = Sampler::new(1000, 0u64);
        for v in 0..100_000 {
            s.push(v);
        }
        assert!(s.values().len() <= 1000 && s.values().len() >= 500);
        let stride = s.values()[1] - s.values()[0];
        assert!(s.values().windows(2).all(|w| w[1] - w[0] == stride));
    }
}
