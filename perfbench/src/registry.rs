//! Deltas of the process-wide `rde_obs` metrics registry — the same
//! registry the daemon's `METRICS` op exports — taken around the
//! benchmark's calls, so per-layer counts come from the program's own
//! counters and not from a second instrumentation path.

use std::collections::BTreeMap;

/// Counter values and histogram (count, sum) pairs by series name.
/// Labeled histograms are summed over their label sets into `name{*}`.
#[derive(Debug, Default)]
pub struct Reading {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

fn all_labels(name: &str) -> String {
    format!("{name}{{*}}")
}

impl Reading {
    /// Read the registry now.
    pub fn now() -> Reading {
        let snap = rde_obs::snapshot();
        let mut r = Reading::default();
        for (name, v) in snap.counters {
            *r.counters.entry(name).or_default() += v;
        }
        for (name, h) in snap.histograms {
            let e = r.histograms.entry(name).or_default();
            e.0 += h.count;
            e.1 = e.1.wrapping_add(h.sum);
        }
        for (name, _, h) in snap.labeled_histograms {
            let e = r.histograms.entry(all_labels(&name)).or_default();
            e.0 += h.count;
            e.1 = e.1.wrapping_add(h.sum);
        }
        r
    }

    /// `self - earlier`, series by series (a series absent earlier
    /// counts from 0).
    pub fn since(&self, earlier: &Reading) -> Reading {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, &(c, s))| {
                let (c0, s0) = earlier.histograms.get(k).copied().unwrap_or_default();
                (k.clone(), (c.saturating_sub(c0), s.wrapping_sub(s0)))
            })
            .collect();
        Reading { counters, histograms }
    }

    /// An unlabeled counter (0 when never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// An unlabeled histogram's (count, sum).
    pub fn histogram(&self, name: &str) -> (u64, u64) {
        self.histograms.get(name).copied().unwrap_or_default()
    }

    /// A labeled histogram's (count, sum) over all its label sets.
    pub fn labeled_histogram(&self, name: &str) -> (u64, u64) {
        self.histogram(&all_labels(name))
    }
}
