//! Named metrics: counters, gauges, fixed-bucket histograms, and their
//! Prometheus text exposition.
//!
//! The histogram is the power-of-two-µs design that previously lived in
//! `nshot-server`: bucket *i* counts observations in `[2^(i-1), 2^i)` µs
//! (bucket 0 counts `0`). 40 buckets cover ~17 minutes, far beyond any
//! request timeout. Recording is O(1) with no allocation, and quantiles are
//! computed from the counts on demand, conservatively reporting the *upper*
//! edge of the bucket the quantile falls in. All timing comes from
//! [`std::time::Instant`] at the call sites; histograms never consult a
//! clock. Recording is a handful of relaxed atomic adds, so one
//! [`Histogram`] is shared by every recorder (the [`Registry`]'s series,
//! a load generator's per-client tallies) and readers fold or render it
//! from one read of its buckets.
//!
//! Metric names may carry a fixed Prometheus label set inline
//! (`name{stage="minimize"}`); the renderer splits base name and labels so
//! histogram series get their `le` label merged correctly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::target::lock;

/// Number of power-of-two buckets (see module docs).
pub const NUM_BUCKETS: usize = 40;

/// Index of the bucket covering `us`.
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Upper edge (exclusive) of bucket `i`, in µs.
fn upper_edge(i: usize) -> u64 {
    if i == 0 {
        1
    } else {
        1u64 << i
    }
}

/// A fixed-bucket histogram of microsecond latencies, recorded through
/// `&self`. The count is the sum of the buckets, so every reading is
/// self-consistent even while records race with it.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation (relaxed atomic adds).
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// One read of the bucket counts. Buckets are read one by one, not
    /// as a set, which is fine for monitoring: each counter is monotone.
    fn counts(&self) -> [u64; NUM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observations in µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest observation in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper edge of the bucket it
    /// falls in; 0 with no observations.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts = self.counts();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, clamped into range.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (i, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return upper_edge(i).min(self.max_us().max(1));
            }
        }
        upper_edge(NUM_BUCKETS - 1)
    }

    /// Median (p50) in µs.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 99th percentile in µs.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Render this histogram as Prometheus text series `base_bucket{…,le}`,
    /// `base_sum`, `base_count`. `labels` is the inner label list without
    /// braces (may be empty).
    pub fn render_prometheus(&self, out: &mut String, base: &str, labels: &str) {
        use std::fmt::Write;
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, n) in self.counts().into_iter().enumerate() {
            cumulative += n;
            // Keep the exposition compact: only non-empty buckets get a
            // boundary line; `+Inf` always closes the series.
            if n > 0 {
                let _ = writeln!(
                    out,
                    "{base}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                    upper_edge(i)
                );
            }
        }
        let (count, sum) = (cumulative, self.sum_us());
        let _ = writeln!(out, "{base}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}");
        if labels.is_empty() {
            let _ = writeln!(out, "{base}_sum {sum}");
            let _ = writeln!(out, "{base}_count {count}");
        } else {
            let _ = writeln!(out, "{base}_sum{{{labels}}} {sum}");
            let _ = writeln!(out, "{base}_count{{{labels}}} {count}");
        }
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with an externally maintained monotone value (used to
    /// mirror counters that live inside another data structure).
    pub fn store(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to 0 (benchmark isolation).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Raise the value to `n` if larger (high-water marks).
    pub fn raise(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hit/miss/eviction counters of a bounded cache — shared by the espresso
/// memo table (`nshot-logic`) and the server's whole-response cache, which
/// previously each carried their own copy of this struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by the bounded table's generation rotation.
    pub evictions: u64,
}

/// Split a metric name into `(base, labels)`: `a_total{x="y"}` →
/// `("a_total", "x=\"y\"")`.
fn split_name(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// A registry of named metrics. One process-global instance
/// ([`Registry::global`]) carries cross-cutting series (pipeline stage
/// histograms, espresso-cache counters); components with per-instance
/// counters (one `Server` per test, say) create their own.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Current value of a counter, 0 when it has never been created.
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map_or(0, |c| c.get())
    }

    /// Render every metric as Prometheus text exposition (version 0.0.4):
    /// `# TYPE` headers, then one `name{labels} value` line per series, in
    /// deterministic (sorted) order.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let counters = lock(&self.counters);
        let gauges = lock(&self.gauges);
        let scalars = counters
            .iter()
            .map(|(name, c)| (name, "counter", c.get()))
            .chain(gauges.iter().map(|(name, g)| (name, "gauge", g.get())));
        let mut last = ("", "");
        for (name, kind, value) in scalars {
            let (base, _) = split_name(name);
            if (base, kind) != last {
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last = (base, kind);
            }
            let _ = writeln!(out, "{name} {value}");
        }
        let mut last_base = "";
        for (name, h) in lock(&self.histograms).iter() {
            let (base, labels) = split_name(name);
            if base != last_base {
                let _ = writeln!(out, "# TYPE {base} histogram");
                last_base = base;
            }
            h.render_prometheus(&mut out, base, labels);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_edges_partition_the_line() {
        // Every bucket's upper edge is the next bucket's lower edge, and
        // values land exactly where the edges say they should.
        for i in 1..NUM_BUCKETS - 1 {
            let hi = upper_edge(i);
            assert_eq!(bucket_of(hi - 1), i, "inclusive below the edge");
            assert_eq!(bucket_of(hi), i + 1, "exclusive at the edge");
        }
        assert_eq!(upper_edge(0), 1);
        assert_eq!(bucket_of(upper_edge(NUM_BUCKETS - 1)), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_conservative_upper_bounds() {
        let h = Histogram::default();
        for us in [10, 11, 12, 13, 900, 950, 1000, 1100, 9000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.p50_us();
        let p99 = h.p99_us();
        assert!((900..=2048).contains(&p50), "p50 = {p50}");
        assert!((100_000..=131_072).contains(&p99), "p99 = {p99}");
        assert_eq!(h.max_us(), 100_000);
    }

    #[test]
    fn single_observation_everything_agrees() {
        let h = Histogram::default();
        h.record(5000);
        assert_eq!(h.p50_us(), h.p99_us());
        assert_eq!(h.sum_us(), 5000);
        assert_eq!(h.counts().iter().filter(|&&n| n > 0).count(), 1);
    }

    #[test]
    fn concurrent_recording_matches_sequential() {
        let values: Vec<u64> = (0..8_000u64).map(|i| (i * 7919) % 100_003).collect();
        let sequential = Histogram::default();
        for &us in &values {
            sequential.record(us);
        }
        let shared = Histogram::default();
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len() / 8) {
                let shared = &shared;
                s.spawn(move || chunk.iter().for_each(|&us| shared.record(us)));
            }
        });
        assert_eq!(shared.count(), sequential.count());
        assert_eq!(shared.sum_us(), sequential.sum_us());
        assert_eq!(shared.max_us(), sequential.max_us());
        assert_eq!(shared.counts(), sequential.counts());
    }

    #[test]
    fn registry_series_are_shared_and_rendered_sorted() {
        let reg = Registry::new();
        reg.counter("b_total").add(2);
        reg.counter("a_total{k=\"v\"}").inc();
        assert_eq!(reg.counter_value("b_total"), 2);
        // Same name → same underlying counter.
        reg.counter("b_total").inc();
        assert_eq!(reg.counter_value("b_total"), 3);
        reg.gauge("depth").set(7);
        reg.histogram("lat_us{stage=\"x\"}").record(3);
        reg.histogram("lat_us{stage=\"x\"}").record(700);

        let text = reg.render_prometheus();
        let a = text.find("a_total{k=\"v\"} 1").expect("labeled counter");
        let b = text.find("b_total 3").expect("plain counter");
        assert!(a < b, "sorted order");
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth 7"));
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{stage=\"x\",le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum{stage=\"x\"} 703"));
        assert!(text.contains("lat_us_count{stage=\"x\"} 2"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let h = Histogram::default();
        for us in [1u64, 1, 3, 900] {
            h.record(us);
        }
        let mut out = String::new();
        h.render_prometheus(&mut out, "t_us", "");
        assert!(out.contains("t_us_bucket{le=\"2\"} 2"));
        assert!(out.contains("t_us_bucket{le=\"4\"} 3"));
        assert!(out.contains("t_us_bucket{le=\"1024\"} 4"));
        assert!(out.contains("t_us_bucket{le=\"+Inf\"} 4"));
        assert!(out.contains("t_us_sum 905"));
        assert!(out.contains("t_us_count 4"));
    }
}
