//! Small numeric helpers: exact quantiles over recorded samples, and
//! window deltas of the daemons' `dasd_stage_duration_us{stage,op}`
//! histograms and counters read from their Prometheus text dumps.

use std::collections::BTreeMap;

/// Exact quantile of an unsorted sample by nearest rank (`q` in
/// `[0, 1]`); `None` when the sample is empty.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1])
}

/// The median of a slice of floats (mean of the middle pair for even
/// lengths); 0 for an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of a sample; 0 when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

/// One fleet-merged `(stage, op)` cell of the stage histograms: the
/// number of observations and their summed duration in µs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cell {
    /// Observations.
    pub count: f64,
    /// Summed duration, µs.
    pub sum_us: f64,
}

impl Cell {
    /// Mean duration in µs (0 for an empty cell).
    pub fn mean_us(&self) -> f64 {
        if self.count > 0.0 {
            self.sum_us / self.count
        } else {
            0.0
        }
    }
}

/// A fleet-wide snapshot of the metrics this benchmark reads: stage
/// cells merged across daemons, plus summed counters and gauges by
/// metric name (labels folded).
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// `(stage, op)` → merged cell.
    pub stages: BTreeMap<(String, String), Cell>,
    /// Metric name → value summed over daemons and label sets.
    pub totals: BTreeMap<String, f64>,
}

impl FleetMetrics {
    /// Merge every daemon's text dump.
    pub fn from_dumps(dumps: &[(u32, String)]) -> FleetMetrics {
        let mut m = FleetMetrics::default();
        for s in dumps.iter().flat_map(|(_, text)| das_obs::parse(text)) {
            let label = |k: &str| {
                s.labels
                    .iter()
                    .find(|(n, _)| n == k)
                    .map(|(_, v)| v.clone())
            };
            match s.name.as_str() {
                "dasd_stage_duration_us_sum" | "dasd_stage_duration_us_count" => {
                    let (Some(stage), Some(op)) = (label("stage"), label("op")) else {
                        continue;
                    };
                    let cell = m.stages.entry((stage, op)).or_default();
                    if s.name.ends_with("_sum") {
                        cell.sum_us += s.value;
                    } else {
                        cell.count += s.value;
                    }
                }
                name if !name.ends_with("_bucket") => {
                    *m.totals.entry(name.to_string()).or_default() += s.value;
                }
                _ => {}
            }
        }
        m
    }

    /// What happened between `before` and `self` (counters and stage
    /// cells are cumulative in the daemons).
    pub fn since(&self, before: &FleetMetrics) -> FleetMetrics {
        let mut d = self.clone();
        for (k, cell) in d.stages.iter_mut() {
            if let Some(b) = before.stages.get(k) {
                cell.count -= b.count;
                cell.sum_us -= b.sum_us;
            }
        }
        for (k, v) in d.totals.iter_mut() {
            *v -= before.totals.get(k).copied().unwrap_or(0.0);
        }
        d
    }

    /// The merged cell for `(stage, op)`, empty when never observed.
    pub fn cell(&self, stage: &str, op: &str) -> Cell {
        self.stages
            .get(&(stage.to_string(), op.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// A summed counter or gauge, 0 when absent.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn stage_cells_merge_and_difference() {
        let reg = das_obs::Registry::new();
        let h = reg.histogram(
            "dasd_stage_duration_us",
            &[("stage", "queue_wait"), ("op", "get")],
        );
        h.observe(10);
        reg.counter("dasd_requests_shed_total", &[("reason", "backlog")])
            .add(2);
        let before = FleetMetrics::from_dumps(&[(0, reg.encode()), (1, reg.encode())]);
        h.observe(30);
        let after = FleetMetrics::from_dumps(&[(0, reg.encode()), (1, reg.encode())]);
        let d = after.since(&before);
        let c = d.cell("queue_wait", "get");
        assert_eq!((c.count, c.sum_us), (2.0, 60.0));
        assert_eq!(c.mean_us(), 30.0);
        assert_eq!(after.total("dasd_requests_shed_total"), 4.0);
        assert_eq!(d.total("dasd_requests_shed_total"), 0.0);
    }
}
