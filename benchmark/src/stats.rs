//! The arithmetic the benchmark reports with: medians and percentiles,
//! the quartiles the acceptance rule uses, and the self-time
//! split of the optimizer's telemetry spans.

use std::collections::BTreeMap;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between the
/// closest ranks, never outside the sample's range (Python's
/// `statistics.quantiles(method="inclusive")`). `0.0` for no samples.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let h = (n - 1) as f64 * p.clamp(0.0, 1.0);
            let lo = h.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (h - lo as f64) * (v[hi] - v[lo])
        }
    }
}

/// The median (`0.0` for no samples).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), which is what the acceptance rule is stated in.
/// A single sample is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Geometric mean of positive ratios (`1.0` for none). The logarithms
/// are summed in sorted order, so the result does not depend on the
/// order of the jobs (which the seed shuffles) down to the last bit.
#[must_use]
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (sorted(ratios).iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Which span each optimizer span nests in. Spans absent from this
/// table (`gdo.delay_phase`, `gdo.area_phase`, `gdo.round.apply`) are
/// containers that add no split: their time stays with the nearest
/// listed ancestor. The listed children never nest in one another —
/// proofs run inside the apply loop and the area phase, verification in
/// the pipeline tail or after an apply, resubstitution as its own
/// engine — so their totals can be subtracted from the parent as they
/// are.
pub const GDO_NESTING: &[(&str, Option<&str>)] = &[
    ("gdo.optimize", None),
    ("gdo.round.candidates", Some("gdo.optimize")),
    ("gdo.round.bpfs", Some("gdo.optimize")),
    ("gdo.prove", Some("gdo.optimize")),
    ("gdo.resub", Some("gdo.optimize")),
    ("gdo.verify", Some("gdo.optimize")),
];

/// Self time of every span in `nesting`: its total minus the totals of
/// the spans that name it as parent. Spans missing from `totals` count
/// as zero.
#[must_use]
pub fn self_times(
    totals: &BTreeMap<String, f64>,
    nesting: &[(&str, Option<&str>)],
) -> BTreeMap<String, f64> {
    let total = |name: &str| totals.get(name).copied().unwrap_or(0.0);
    nesting
        .iter()
        .map(|&(name, _)| {
            let children: f64 = nesting
                .iter()
                .filter(|&&(_, parent)| parent == Some(name))
                .map(|&(child, _)| total(child))
                .sum();
            (name.to_string(), total(name) - children)
        })
        .collect()
}

/// Share of `gdo.optimize` that its listed child spans explain (`0.0`
/// when the optimizer did not run).
#[must_use]
pub fn attributed_frac(totals: &BTreeMap<String, f64>) -> f64 {
    let optimize = totals.get("gdo.optimize").copied().unwrap_or(0.0);
    if optimize <= 0.0 {
        return 0.0;
    }
    let other = self_times(totals, GDO_NESTING)["gdo.optimize"];
    1.0 - other / optimize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn percentiles_interpolate_inside_the_sample() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert!(close(median(&v), 3.0));
        assert!(close(percentile(&v, 0.9), 4.6));
        assert!(close(percentile(&v, 0.0), 1.0));
        assert!(close(percentile(&v, 1.0), 5.0));
        assert!(close(median(&[1.0, 2.0]), 1.5));
        assert!(close(percentile(&[1.0, 2.0], 0.9), 1.9));
        assert!(close(median(&[7.0]), 7.0));
        assert!(close(median(&[]), 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert!(close(q1, 1.0) && close(q3, 3.0), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!(close(geomean(&[0.5, 2.0]), 1.0));
        assert!(close(geomean(&[0.25, 0.25]), 0.25));
        assert!(close(geomean(&[]), 1.0));
    }

    #[test]
    fn geomean_does_not_depend_on_order() {
        // Summed in these orders without sorting, 36 of the 50 results
        // differ in the last bits.
        let ratios = [0.3, 0.999_999_9, 0.7, 0.913_3, 0.1, 0.62, 0.880_1];
        let expected = geomean(&ratios).to_bits();
        let mut perm = ratios;
        let n = perm.len();
        for i in 0..50usize {
            perm.swap(i % n, (i * 5 + 3) % n);
            assert_eq!(geomean(&perm).to_bits(), expected, "{perm:?}");
        }
    }

    #[test]
    fn self_time_subtracts_listed_children_only() {
        let totals: BTreeMap<String, f64> = [
            ("gdo.optimize", 10.0),
            ("gdo.delay_phase", 7.0),
            ("gdo.round.candidates", 1.0),
            ("gdo.round.bpfs", 2.0),
            ("gdo.prove", 4.0),
            ("gdo.verify", 0.5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let own = self_times(&totals, GDO_NESTING);
        assert!(close(own["gdo.optimize"], 2.5));
        assert!(close(own["gdo.prove"], 4.0));
        assert!(close(own["gdo.resub"], 0.0));
        assert!(!own.contains_key("gdo.delay_phase"));
        assert!(close(attributed_frac(&totals), 0.75));
        assert!(close(attributed_frac(&BTreeMap::new()), 0.0));
    }
}
