//! Confidence intervals for the AUROC.
//!
//! * [`auroc_ci_delong`] — the DeLong (1988) asymptotic variance of the
//!   Mann–Whitney AUC from its structural components, with a normal
//!   approximation interval. Exact asymptotics, `O(n log n)` via ranks.
//! * [`delong_paired_test`] — the paired DeLong test of two scores on
//!   the same labels.
//!
//! The `fig1_auroc` experiment reports DeLong intervals so the per-window
//! comparison between stability and RFM carries its uncertainty.

/// `(auc, lo, hi)` with `NaN`s when a class is empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AurocCi {
    /// Point estimate.
    pub auc: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl AurocCi {
    fn nan() -> AurocCi {
        AurocCi {
            auc: f64::NAN,
            lo: f64::NAN,
            hi: f64::NAN,
        }
    }
}

/// Standard normal quantile (Acklam's rational approximation; |error| <
/// 1.2e-8 — far below sampling noise here).
fn normal_quantile(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0,1)");
    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Midranks of `xs` (average ranks for ties), 1-based.
fn midranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// DeLong confidence interval at level `1 − alpha`.
pub fn auroc_ci_delong(labels: &[bool], scores: &[f64], alpha: f64) -> AurocCi {
    assert_eq!(labels.len(), scores.len(), "labels/scores length mismatch");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    let pos: Vec<f64> = labels
        .iter()
        .zip(scores)
        .filter(|(&l, _)| l)
        .map(|(_, &s)| s)
        .collect();
    let neg: Vec<f64> = labels
        .iter()
        .zip(scores)
        .filter(|(&l, _)| !l)
        .map(|(_, &s)| s)
        .collect();
    let (m, n) = (pos.len(), neg.len());
    if m == 0 || n == 0 {
        return AurocCi::nan();
    }
    // Structural components: V10_i = (R_i − R10_i)/n, V01_j = 1 − (R_j − R01_j)/m.
    let (v10, v01, auc) = delong_components(&pos, &neg);
    let var = |xs: &[f64]| -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64
    };
    let se = (var(&v10) / m as f64 + var(&v01) / n as f64).sqrt();
    let z = normal_quantile(1.0 - alpha / 2.0);
    AurocCi {
        auc,
        lo: (auc - z * se).max(0.0),
        hi: (auc + z * se).min(1.0),
    }
}

/// Result of a paired DeLong comparison of two models on the *same*
/// observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedDelong {
    /// AUC of model A.
    pub auc_a: f64,
    /// AUC of model B.
    pub auc_b: f64,
    /// `auc_a − auc_b`.
    pub delta: f64,
    /// Z statistic of the difference (accounting for the correlation of
    /// the two models' scores on shared observations).
    pub z: f64,
    /// Two-sided p-value under the normal approximation.
    pub p_value: f64,
}

/// Standard normal CDF via `erf`-free Abramowitz–Stegun 7.1.26
/// approximation (|error| < 1.5e-7).
fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let tail = pdf * poly;
    if x >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Structural components `(V10, V01, auc)` of one score vector.
fn delong_components(pos: &[f64], neg: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
    let (m, n) = (pos.len(), neg.len());
    let mut combined = pos.to_vec();
    combined.extend_from_slice(neg);
    let r_all = midranks(&combined);
    let r_pos = midranks(pos);
    let r_neg = midranks(neg);
    let auc = (r_all[..m].iter().sum::<f64>() - m as f64 * (m as f64 + 1.0) / 2.0)
        / (m as f64 * n as f64);
    let v10: Vec<f64> = (0..m).map(|i| (r_all[i] - r_pos[i]) / n as f64).collect();
    let v01: Vec<f64> = (0..n)
        .map(|j| 1.0 - (r_all[m + j] - r_neg[j]) / m as f64)
        .collect();
    (v10, v01, auc)
}

/// Paired DeLong test: do models A and B (scored on the same labeled
/// observations) have different AUCs?
///
/// Returns `None` when either class is empty or the variance degenerates
/// (e.g. both models separate perfectly).
pub fn delong_paired_test(
    labels: &[bool],
    scores_a: &[f64],
    scores_b: &[f64],
) -> Option<PairedDelong> {
    assert_eq!(
        labels.len(),
        scores_a.len(),
        "labels/scores_a length mismatch"
    );
    assert_eq!(
        labels.len(),
        scores_b.len(),
        "labels/scores_b length mismatch"
    );
    let idx_pos: Vec<usize> = (0..labels.len()).filter(|&i| labels[i]).collect();
    let idx_neg: Vec<usize> = (0..labels.len()).filter(|&i| !labels[i]).collect();
    let (m, n) = (idx_pos.len(), idx_neg.len());
    if m == 0 || n == 0 {
        return None;
    }
    let split = |scores: &[f64]| -> (Vec<f64>, Vec<f64>) {
        (
            idx_pos.iter().map(|&i| scores[i]).collect(),
            idx_neg.iter().map(|&i| scores[i]).collect(),
        )
    };
    let (pos_a, neg_a) = split(scores_a);
    let (pos_b, neg_b) = split(scores_b);
    let (v10_a, v01_a, auc_a) = delong_components(&pos_a, &neg_a);
    let (v10_b, v01_b, auc_b) = delong_components(&pos_b, &neg_b);
    let cov = |xs: &[f64], ys: &[f64]| -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let mx = xs.iter().sum::<f64>() / xs.len() as f64;
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        xs.iter()
            .zip(ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / (xs.len() - 1) as f64
    };
    // Var(ΔAUC) = [s10_a + s10_b − 2 cov10] / m + [s01_a + s01_b − 2 cov01] / n
    let var = (cov(&v10_a, &v10_a) + cov(&v10_b, &v10_b) - 2.0 * cov(&v10_a, &v10_b)) / m as f64
        + (cov(&v01_a, &v01_a) + cov(&v01_b, &v01_b) - 2.0 * cov(&v01_a, &v01_b)) / n as f64;
    let delta = auc_a - auc_b;
    if var <= 0.0 {
        return None;
    }
    let z = delta / var.sqrt();
    let p_value = 2.0 * (1.0 - normal_cdf(z.abs()));
    Some(PairedDelong {
        auc_a,
        auc_b,
        delta,
        z,
        p_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roc::auroc;
    use attrition_util::Rng;

    fn scored(n: usize, separation: f64, seed: u64) -> (Vec<bool>, Vec<f64>) {
        let mut rng = Rng::seed_from_u64(seed);
        let labels: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
        let scores: Vec<f64> = labels
            .iter()
            .map(|&l| rng.normal_with(if l { separation } else { 0.0 }, 1.0))
            .collect();
        (labels, scores)
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-8);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.999) - 3.090232).abs() < 1e-4);
    }

    #[test]
    fn delong_point_estimate_matches_auroc() {
        let (labels, scores) = scored(500, 1.0, 1);
        let ci = auroc_ci_delong(&labels, &scores, 0.05);
        let direct = auroc(&labels, &scores);
        assert!((ci.auc - direct).abs() < 1e-12, "{} vs {direct}", ci.auc);
        assert!(ci.lo < ci.auc && ci.auc < ci.hi);
    }

    #[test]
    fn delong_interval_narrows_with_n() {
        let (l1, s1) = scored(100, 1.0, 2);
        let (l2, s2) = scored(10_000, 1.0, 2);
        let small = auroc_ci_delong(&l1, &s1, 0.05);
        let large = auroc_ci_delong(&l2, &s2, 0.05);
        assert!(
            large.hi - large.lo < (small.hi - small.lo) / 3.0,
            "large-n interval not narrower: {large:?} vs {small:?}"
        );
    }

    #[test]
    fn delong_coverage_sanity() {
        // True AUC for separation d under equal-variance normals is
        // Φ(d/√2); with d=1 → ≈0.7602. The 95% CI should usually cover it.
        let true_auc = 0.7602;
        let mut covered = 0;
        for seed in 0..40 {
            let (labels, scores) = scored(400, 1.0, 100 + seed);
            let ci = auroc_ci_delong(&labels, &scores, 0.05);
            if ci.lo <= true_auc && true_auc <= ci.hi {
                covered += 1;
            }
        }
        assert!(covered >= 34, "coverage too low: {covered}/40");
    }

    #[test]
    fn delong_degenerate_nan() {
        let ci = auroc_ci_delong(&[true, true], &[0.1, 0.2], 0.05);
        assert!(ci.auc.is_nan());
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.9750021).abs() < 1e-4);
        assert!((normal_cdf(-1.96) - 0.0249979).abs() < 1e-4);
    }

    #[test]
    fn paired_test_detects_better_model() {
        let mut rng = Rng::seed_from_u64(21);
        let n = 800;
        let labels: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
        // Model A: strong signal. Model B: same signal + heavy noise.
        let signal: Vec<f64> = labels
            .iter()
            .map(|&l| if l { 1.2 } else { 0.0 } + rng.normal())
            .collect();
        let noisy: Vec<f64> = signal.iter().map(|s| s + 3.0 * rng.normal()).collect();
        let t = delong_paired_test(&labels, &signal, &noisy).unwrap();
        assert!(t.auc_a > t.auc_b);
        assert!(t.delta > 0.05, "delta {}", t.delta);
        assert!(t.z > 2.0, "z {}", t.z);
        assert!(t.p_value < 0.05, "p {}", t.p_value);
    }

    #[test]
    fn paired_test_similar_models_not_significant() {
        let mut rng = Rng::seed_from_u64(22);
        let n = 400;
        let labels: Vec<bool> = (0..n).map(|_| rng.bernoulli(0.5)).collect();
        let base: Vec<f64> = labels
            .iter()
            .map(|&l| if l { 1.0 } else { 0.0 } + rng.normal())
            .collect();
        // Two models = same signal with independent small perturbations.
        let a: Vec<f64> = base.iter().map(|s| s + 0.1 * rng.normal()).collect();
        let b: Vec<f64> = base.iter().map(|s| s + 0.1 * rng.normal()).collect();
        let t = delong_paired_test(&labels, &a, &b).unwrap();
        assert!(t.delta.abs() < 0.05, "delta {}", t.delta);
        assert!(t.p_value > 0.05, "p {}", t.p_value);
    }

    #[test]
    fn paired_test_degenerate_none() {
        assert!(delong_paired_test(&[true, true], &[0.1, 0.2], &[0.3, 0.4]).is_none());
        // Identical scores: zero variance of the difference.
        let labels = [true, false, true, false];
        let s = [0.9, 0.1, 0.8, 0.2];
        assert!(delong_paired_test(&labels, &s, &s).is_none());
    }

    #[test]
    fn perfect_separation_interval_clamped() {
        let labels = [true, true, true, false, false, false];
        let scores = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1];
        let ci = auroc_ci_delong(&labels, &scores, 0.05);
        assert_eq!(ci.auc, 1.0);
        assert!(ci.hi <= 1.0);
        assert!(ci.lo >= 0.0);
    }
}
