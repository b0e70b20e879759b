//! Counters and derived statistics.
//!
//! A simulated component counts its events in a struct of plain `u64`
//! fields declared with [`counters!`](crate::counters): counting an event is
//! one field increment, never a map lookup. When a run ends, each component
//! exports its struct into the run's [`StatSet`] under `prefix.field` names,
//! and the experiment harnesses read those named counters (cycle counts, hit
//! rates, invalidate-broadcast counts, ...) to build the paper's figures.

use std::collections::BTreeMap;
use std::fmt;

/// A set of named integer counters and scalar values.
///
/// Counters are created lazily on first use and kept in sorted order so that
/// reports are stable across runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatSet {
    counters: BTreeMap<String, u64>,
    scalars: BTreeMap<String, f64>,
}

impl StatSet {
    /// Creates an empty statistics set.
    pub fn new() -> Self {
        StatSet::default()
    }

    /// Adds `delta` to the counter `name`, creating it if needed.
    ///
    /// The key is allocated only on the counter's first use, so bumping an
    /// existing counter in a hot loop does not touch the allocator.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Returns the value of counter `name`, or zero if it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the scalar statistic `name` to `value`.
    pub fn set_scalar(&mut self, name: &str, value: f64) {
        self.scalars.insert(name.to_owned(), value);
    }

    /// Returns the scalar statistic `name`, or `None`.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars.get(name).copied()
    }

    /// Returns the ratio `numer / denom` of two counters, or zero if the
    /// denominator counter is zero.
    pub fn ratio(&self, numer: &str, denom: &str) -> f64 {
        let d = self.counter(denom);
        if d == 0 {
            0.0
        } else {
            self.counter(numer) as f64 / d as f64
        }
    }

    /// Iterates over all counters in name order.
    pub fn iter_counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all scalar statistics in name order.
    pub fn iter_scalars(&self) -> impl Iterator<Item = (&str, f64)> {
        self.scalars.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another statistics set into this one, summing counters and
    /// overwriting scalars.
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.scalars {
            self.scalars.insert(k.clone(), *v);
        }
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k}: {v}")?;
        }
        for (k, v) in &self.scalars {
            writeln!(f, "{k}: {v:.6}")?;
        }
        Ok(())
    }
}

/// Declares a struct of plain `u64` event counters that exports itself into
/// a [`StatSet`].
///
/// Attributes (docs included) and the visibility of the struct and of each
/// field pass through; every field must be a `u64`. The struct derives
/// `Debug`, `Clone`, `Default`, `PartialEq` and `Eq`, and gains two methods
/// that add each field to a [`StatSet`] as `prefix.field`, the name taken
/// from the field's identifier:
///
/// * `export` adds every field, zeros included;
/// * `export_nonzero` skips a zero field, so a counter that never moved
///   stays absent from the set.
///
/// A field rename therefore renames its report key.
#[macro_export]
macro_rules! counters {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_attr:meta])*
                $field_vis:vis $field:ident: u64
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        $vis struct $name {
            $(
                $(#[$field_attr])*
                $field_vis $field: u64,
            )*
        }

        impl $name {
            /// Adds every counter to `stats` as `prefix.field`, zeros
            /// included.
            #[allow(dead_code)]
            $vis fn export(&self, stats: &mut $crate::stats::StatSet, prefix: &str) {
                $(stats.add(&format!("{prefix}.{}", stringify!($field)), self.$field);)*
            }

            /// Adds each non-zero counter to `stats` as `prefix.field`; a
            /// counter that never moved stays absent.
            #[allow(dead_code)]
            $vis fn export_nonzero(&self, stats: &mut $crate::stats::StatSet, prefix: &str) {
                $(
                    if self.$field != 0 {
                        stats.add(&format!("{prefix}.{}", stringify!($field)), self.$field);
                    }
                )*
            }
        }
    };
}

/// Computes the geometric mean of a slice of positive values.
///
/// Values that are not finite and positive are ignored; an empty input yields 1.0.
/// This mirrors how the paper reports "geomean" bars in figures 3 and 4.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let usable: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if usable.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = usable.iter().map(|v| v.ln()).sum();
    (log_sum / usable.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = StatSet::new();
        s.add("loads", 1);
        s.add("loads", 4);
        assert_eq!(s.counter("loads"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    crate::counters! {
        /// Two counters, to pin the names and the zero rule.
        struct Pair {
            /// A field doc passes through.
            hits: u64,
            pub misses: u64,
        }
    }

    #[test]
    fn counters_export_under_prefix_and_field_name() {
        let counts = Pair { hits: 3, misses: 0 };
        let mut all = StatSet::new();
        counts.export(&mut all, "core7.l0d");
        let names: Vec<_> = all.iter_counters().collect();
        assert_eq!(names, [("core7.l0d.hits", 3), ("core7.l0d.misses", 0)]);

        let mut nonzero = StatSet::new();
        counts.export_nonzero(&mut nonzero, "muontrap");
        let names: Vec<_> = nonzero.iter_counters().collect();
        assert_eq!(names, [("muontrap.hits", 3)], "a zero counter stays absent");

        // Exporting into a set that already holds a key adds to it.
        counts.export(&mut all, "core7.l0d");
        assert_eq!(all.counter("core7.l0d.hits"), 6);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut s = StatSet::new();
        s.add("hits", 10);
        assert_eq!(s.ratio("hits", "accesses"), 0.0);
        s.add("accesses", 20);
        assert!((s.ratio("hits", "accesses") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = StatSet::new();
        a.add("x", 3);
        let mut b = StatSet::new();
        b.add("x", 4);
        b.add("y", 1);
        b.set_scalar("ipc", 1.5);
        a.merge(&b);
        assert_eq!(a.counter("x"), 7);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.scalar("ipc"), Some(1.5));
    }

    #[test]
    fn geometric_mean_of_known_values() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 1.0);
        // Non-positive values are skipped rather than poisoning the result.
        let g = geometric_mean(&[0.0, 2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn display_lists_counters() {
        let mut s = StatSet::new();
        s.add("cycles", 100);
        s.set_scalar("ipc", 2.0);
        let text = format!("{s}");
        assert!(text.contains("cycles: 100"));
        assert!(text.contains("ipc"));
    }
}
