//! Evaluating counting outputs against Definition 2 of the paper.
//!
//! Definition 2 (Byzantine counting): every honest node decides an
//! estimate `L_u` of `log n` within `T` rounds, and there is a set of at
//! least `(1−ϵ)n − B(n)` honest nodes whose estimates satisfy
//! `c₁·log n ⩽ L_u ⩽ c₂·log n` for fixed constants `c₁, c₂ > 0`.
//!
//! [`EstimateReport::evaluate`] turns a batch of raw estimates into the
//! quantities the paper's theorems talk about: how many honest nodes
//! decided, how many landed in the constant-factor band, and summary
//! statistics of `L_u / ln n`.

use bcount_json::{Json, ToJson};
use serde::{Deserialize, Serialize};

/// A constant-factor acceptance band for estimates of `ln n`.
///
/// An estimate `L` is *in band* if `lo · ln n ⩽ L ⩽ hi · ln n`. The
/// constants are protocol-dependent (the paper fixes them in the analysis,
/// not universally): Algorithm 2 decides near `log_d n`, so its natural
/// band is `lo ≈ 0.5/ln d`, `hi ≈ 3/ln d + slack`; Algorithm 1 decides
/// between `(γ/2)·log_Δ n` and `diam + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Band {
    /// Lower constant `c₁`.
    pub lo: f64,
    /// Upper constant `c₂`.
    pub hi: f64,
}

impl Band {
    /// Creates a band; `lo` may be 0 to disable the lower check.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either is negative.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo >= 0.0 && hi >= lo, "invalid band [{lo}, {hi}]");
        Band { lo, hi }
    }

    /// Whether `estimate` is within this band for true size `n`.
    pub fn contains(&self, estimate: f64, n: usize) -> bool {
        let ln_n = (n.max(2) as f64).ln();
        estimate >= self.lo * ln_n && estimate <= self.hi * ln_n
    }
}

/// Aggregate quality of one execution's estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateReport {
    /// True network size.
    pub n: usize,
    /// Number of honest nodes.
    pub honest: usize,
    /// Honest nodes that decided.
    pub decided: usize,
    /// Honest nodes whose estimate is inside the band.
    pub in_band: usize,
    /// Minimum decided estimate.
    pub min_estimate: f64,
    /// Maximum decided estimate.
    pub max_estimate: f64,
    /// Mean of `L_u / ln n` over decided honest nodes.
    pub mean_ratio: f64,
    /// Median of `L_u / ln n` over decided honest nodes.
    pub median_ratio: f64,
}

impl EstimateReport {
    /// Evaluates a batch of honest estimates (`None` = undecided) against
    /// a [`Band`] for a network of true size `n`.
    pub fn evaluate<I>(n: usize, estimates: I, band: Band) -> Self
    where
        I: IntoIterator<Item = Option<f64>>,
    {
        let ln_n = (n.max(2) as f64).ln();
        let mut honest = 0usize;
        let mut decided_vals: Vec<f64> = Vec::new();
        let mut in_band = 0usize;
        for est in estimates {
            honest += 1;
            if let Some(v) = est {
                decided_vals.push(v);
                if band.contains(v, n) {
                    in_band += 1;
                }
            }
        }
        let decided = decided_vals.len();
        let (min_estimate, max_estimate) = decided_vals
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let mean_ratio = if decided == 0 {
            0.0
        } else {
            decided_vals.iter().map(|v| v / ln_n).sum::<f64>() / decided as f64
        };
        let median_ratio = if decided == 0 {
            0.0
        } else {
            let mut rs: Vec<f64> = decided_vals.iter().map(|v| v / ln_n).collect();
            rs.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
            rs[decided / 2]
        };
        EstimateReport {
            n,
            honest,
            decided,
            in_band,
            min_estimate: if decided == 0 { 0.0 } else { min_estimate },
            max_estimate: if decided == 0 { 0.0 } else { max_estimate },
            mean_ratio,
            median_ratio,
        }
    }

    /// Fraction of honest nodes that decided.
    pub fn decided_fraction(&self) -> f64 {
        if self.honest == 0 {
            0.0
        } else {
            self.decided as f64 / self.honest as f64
        }
    }

    /// Fraction of honest nodes inside the band — the `(1−β)` of
    /// Theorem 2 / the `1 − o(1)` of Theorem 1.
    pub fn in_band_fraction(&self) -> f64 {
        if self.honest == 0 {
            0.0
        } else {
            self.in_band as f64 / self.honest as f64
        }
    }
}

impl ToJson for Band {
    fn to_json(&self) -> Json {
        Json::obj(vec![("lo", self.lo.to_json()), ("hi", self.hi.to_json())])
    }
}

impl ToJson for EstimateReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("n", self.n.to_json()),
            ("honest", self.honest.to_json()),
            ("decided", self.decided.to_json()),
            ("in_band", self.in_band.to_json()),
            ("min_estimate", self.min_estimate.to_json()),
            ("max_estimate", self.max_estimate.to_json()),
            ("mean_ratio", self.mean_ratio.to_json()),
            ("median_ratio", self.median_ratio.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_membership() {
        let b = Band::new(0.5, 2.0);
        let n = 1000; // ln n ≈ 6.9
        assert!(b.contains(6.9, n));
        assert!(b.contains(3.5, n));
        assert!(!b.contains(3.3, n));
        assert!(!b.contains(14.0, n));
    }

    #[test]
    #[should_panic(expected = "invalid band")]
    fn band_rejects_inverted() {
        let _ = Band::new(2.0, 1.0);
    }

    #[test]
    fn evaluate_counts_coverage() {
        let n = 1000;
        let band = Band::new(0.5, 2.0);
        let ests = vec![Some(6.9), Some(3.5), Some(100.0), None];
        let r = EstimateReport::evaluate(n, ests, band);
        assert_eq!(r.honest, 4);
        assert_eq!(r.decided, 3);
        assert_eq!(r.in_band, 2);
        assert!((r.decided_fraction() - 0.75).abs() < 1e-12);
        assert!((r.in_band_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.min_estimate, 3.5);
        assert_eq!(r.max_estimate, 100.0);
        assert!(r.mean_ratio > 1.0);
    }

    #[test]
    fn evaluate_handles_empty() {
        let r = EstimateReport::evaluate(10, Vec::<Option<f64>>::new(), Band::new(0.0, 1.0));
        assert_eq!(r.honest, 0);
        assert_eq!(r.decided, 0);
        assert_eq!(r.decided_fraction(), 0.0);
        assert_eq!(r.in_band_fraction(), 0.0);
    }

    #[test]
    fn median_is_order_insensitive() {
        let band = Band::new(0.0, 10.0);
        let a = EstimateReport::evaluate(100, vec![Some(1.0), Some(9.0), Some(5.0)], band);
        let b = EstimateReport::evaluate(100, vec![Some(9.0), Some(1.0), Some(5.0)], band);
        assert_eq!(a.median_ratio, b.median_ratio);
    }

    #[test]
    fn band_boundaries_are_inclusive() {
        let b = Band::new(0.5, 2.0);
        let n = 1000;
        let ln_n = (n as f64).ln();
        // `c₁·ln n ⩽ L ⩽ c₂·ln n` — both comparisons are non-strict.
        assert!(b.contains(0.5 * ln_n, n));
        assert!(b.contains(2.0 * ln_n, n));
        // The open neighbourhood just outside is excluded.
        assert!(!b.contains(0.5 * ln_n - 1e-9, n));
        assert!(!b.contains(2.0 * ln_n + 1e-9, n));
    }

    #[test]
    fn degenerate_bands_are_allowed() {
        // lo == hi: the band is the single point c·ln n.
        let point = Band::new(1.0, 1.0);
        let ln_n = 1000f64.ln();
        assert!(point.contains(ln_n, 1000));
        assert!(!point.contains(ln_n + 1e-9, 1000));
        // lo == hi == 0 accepts exactly zero (and negatives never pass).
        let zero = Band::new(0.0, 0.0);
        assert!(zero.contains(0.0, 1000));
        assert!(!zero.contains(-1e-9, 1000));
        assert!(!zero.contains(1e-9, 1000));
    }

    #[test]
    fn tiny_networks_clamp_to_ln_2() {
        // `ln n` degenerates at n ⩽ 1 (ln 1 = 0 would accept only 0, and
        // n = 0 is meaningless), so evaluation clamps to ln 2.
        let b = Band::new(0.5, 2.0);
        let ln_2 = 2f64.ln();
        for n in [0, 1, 2] {
            assert!(b.contains(ln_2, n), "n={n}");
            assert!(b.contains(0.5 * ln_2, n), "n={n}");
            assert!(!b.contains(2.0 * ln_2 + 1e-9, n), "n={n}");
        }
    }

    #[test]
    fn evaluate_handles_all_undecided() {
        // Honest nodes exist but none decided: counts reflect the census,
        // the value statistics stay at their 0 sentinels.
        let r = EstimateReport::evaluate(100, vec![None; 7], Band::new(0.5, 2.0));
        assert_eq!(r.honest, 7);
        assert_eq!(r.decided, 0);
        assert_eq!(r.in_band, 0);
        assert_eq!(r.decided_fraction(), 0.0);
        assert_eq!(r.in_band_fraction(), 0.0);
        assert_eq!(r.min_estimate, 0.0);
        assert_eq!(r.max_estimate, 0.0);
        assert_eq!(r.mean_ratio, 0.0);
        assert_eq!(r.median_ratio, 0.0);
    }

    #[test]
    fn evaluate_single_node_network() {
        // n = 1: the lone honest node estimating "about ln 2" is in band
        // under the tiny-network clamp.
        let ln_2 = 2f64.ln();
        let r = EstimateReport::evaluate(1, vec![Some(ln_2)], Band::new(0.5, 2.0));
        assert_eq!(r.honest, 1);
        assert_eq!(r.decided, 1);
        assert_eq!(r.in_band, 1);
        assert_eq!(r.decided_fraction(), 1.0);
        assert_eq!(r.in_band_fraction(), 1.0);
        assert_eq!(r.min_estimate, ln_2);
        assert_eq!(r.max_estimate, ln_2);
        assert!((r.mean_ratio - 1.0).abs() < 1e-12);
        assert!((r.median_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_mixed_undecided_keeps_value_stats_over_decided_only() {
        // Undecided nodes count toward `honest` (the denominators) but
        // must not drag the min/max/ratio statistics toward 0.
        let n = 1000;
        let ln_n = (n as f64).ln();
        let r = EstimateReport::evaluate(
            n,
            vec![None, Some(ln_n), None, Some(2.0 * ln_n), None],
            Band::new(0.5, 2.0),
        );
        assert_eq!(r.honest, 5);
        assert_eq!(r.decided, 2);
        assert_eq!(r.in_band, 2);
        assert_eq!(r.min_estimate, ln_n);
        assert_eq!(r.max_estimate, 2.0 * ln_n);
        assert!((r.mean_ratio - 1.5).abs() < 1e-12);
        assert!((r.decided_fraction() - 0.4).abs() < 1e-12);
    }
}
