//! Order statistics used by the run command and by `compare`.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so `compare` reports the spread the driver computes. A single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency samples of one phase of one round, in nanoseconds.
#[derive(Default, Clone)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn merge(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile over all samples, in microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile_us(&self.0, p)
    }
}

/// Times of the same units of work — slice `j` of the index, probe `j` of
/// the latency phase — over repeated passes, in nanoseconds.
///
/// Every unit does identical work in every pass (same records, same hash
/// functions, same index contents), so what differs between passes is what
/// the machine did to the unit, and that only ever adds time. On this box
/// it comes in episodes of 2 to 20 s during which a core runs pure ALU code
/// a fifth slower and the linkage code up to two thirds slower, switching
/// sharply between the two states (README.md, "Why best-of-passes"). A
/// metric is therefore read per unit as the best of its passes, and over
/// the units as a median or percentile; the passes of a phase are spread
/// over the whole run, so a unit has to meet an episode in every pass to
/// keep it. The all-pass figures are recorded beside the metric.
#[derive(Default)]
pub struct Passes(Vec<Vec<u64>>);

impl Passes {
    /// Adds a pass; it must time the same units as the passes before it.
    pub fn push(&mut self, pass: Vec<u64>) {
        assert!(self.0.first().is_none_or(|p| p.len() == pass.len()));
        self.0.push(pass);
    }

    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Per unit, the shortest time any pass took.
    pub fn best(&self) -> Vec<u64> {
        let units = self.0.first().map_or(0, Vec::len);
        (0..units)
            .map(|j| self.0.iter().map(|p| p[j]).min().unwrap_or(0))
            .collect()
    }

    /// The passes one by one, for the per-pass diagnostics.
    pub fn each(&self) -> &[Vec<u64>] {
        &self.0
    }

    /// Every sample of every pass, for the all-pass diagnostics.
    pub fn all(&self) -> Vec<u64> {
        self.0.iter().flatten().copied().collect()
    }
}

/// Median over units of `size ÷ time`, in units per second.
pub fn median_rate(times_ns: &[u64], sizes: &[usize]) -> f64 {
    let rates: Vec<f64> = times_ns
        .iter()
        .zip(sizes.iter().cycle())
        .map(|(&t, &n)| n as f64 / (t.max(1) as f64 / 1e9))
        .collect();
    median(&rates)
}

/// Nearest-rank percentile of unsorted nanosecond samples, in microseconds.
pub fn percentile_us(samples_ns: &[u64], p: f64) -> f64 {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p) as f64 / 1e3
}

/// Work completed over an interval: `count` units between `from` and
/// `to`, both in nanoseconds since the phase began.
#[derive(Clone, Copy)]
pub struct Done {
    pub from: u64,
    pub to: u64,
    pub count: u64,
}

/// Splits `[start, end)` into `windows` equal windows and returns the rate
/// (units per second) completed in each. An event's count is spread over
/// the windows its interval overlaps, in proportion to the overlap, so a
/// call that completes hundreds of records at once does not quantize the
/// window totals.
pub fn window_rates(events: &[Done], start: u64, end: u64, windows: usize) -> Vec<f64> {
    let width = (end.saturating_sub(start)).max(1) as f64 / windows as f64;
    let mut totals = vec![0.0f64; windows];
    for e in events {
        let (from, to) = (e.from as f64, (e.to.max(e.from + 1)) as f64);
        for (w, total) in totals.iter_mut().enumerate() {
            let lo = start as f64 + w as f64 * width;
            let overlap = (to.min(lo + width) - from.max(lo)).max(0.0);
            *total += e.count as f64 * overlap / (to - from);
        }
    }
    totals.iter().map(|&n| n / (width / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 99.0), 40);
    }

    #[test]
    fn passes_keep_the_best_time_of_every_unit() {
        let mut p = Passes::default();
        p.push(vec![30, 10, 50]);
        p.push(vec![20, 40, 45]);
        assert_eq!(p.best(), vec![20, 10, 45]);
        assert_eq!(p.count(), 2);
        // 2 units in 1 µs and 4 units in 1 µs: the median of two rates is their mean.
        assert_eq!(median_rate(&[1_000, 1_000], &[2, 4]), 3e6);
        assert_eq!(percentile_us(&[3_000, 1_000, 2_000], 50.0), 2.0);
    }

    #[test]
    fn window_rates_spread_events_over_the_windows_they_overlap() {
        let ev = [
            Done {
                from: 0,
                to: 500,
                count: 10,
            },
            Done {
                from: 250,
                to: 750,
                count: 8,
            },
            Done {
                from: 900,
                to: 1100,
                count: 6,
            },
        ];
        let r = window_rates(&ev, 0, 1000, 2);
        assert_eq!(r, vec![14.0 / 5e-7, 7.0 / 5e-7]);
    }
}
