//! Exact order statistics over raw samples, and the metric-name grammar.
//!
//! Every latency the benchmark reports is computed here from the raw
//! client-side samples — never from the service's power-of-two histogram
//! buckets, whose quantiles carry up to 2x error.

/// Fewest samples that must lie beyond a reported high percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Exact `p`-quantile (0 < p ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `ceil(p·len)` samples at or below it.
/// `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Exact `p`-quantile, refused (`None`) unless at least
/// [`MIN_TAIL_SAMPLES`] samples lie strictly beyond its rank.
pub fn tail_quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    if sorted.is_empty() || sorted.len().saturating_sub(rank) < MIN_TAIL_SAMPLES {
        return None;
    }
    nearest_rank(sorted, p)
}

/// Sorts a copy of `values` (NaN-free by construction of every caller).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median with linear interpolation between the two middle samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here is the one the acceptance check computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |j: usize| -> f64 {
        // Exclusive method: position j·(n+1)/4, 1-based, clamped.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Whether `name` obeys the metric-name grammar `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric names declared in one section (`"end_to_end"` or
/// `"per_layer"`) of the `BENCHMARK.json` text: every `"name"` inside
/// the section's array. `None` when the section is missing.
pub fn declared_names(json: &str, section: &str) -> Option<Vec<String>> {
    let start = json.find(&format!("\"{section}\""))?;
    let open = start + json[start..].find('[')?;
    let close = open + json[open..].find(']')?;
    Some(
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .filter_map(|chunk| {
                let rest = chunk.trim_start().strip_prefix(':')?.trim_start();
                let rest = rest.strip_prefix('"')?;
                Some(rest[..rest.find('"')?].to_string())
            })
            .collect(),
    )
}

/// Median over repeated timings of `f`, in nanoseconds per call, after
/// `warm` untimed calls. Each of `reps` samples times `inner` calls.
pub fn time_ns(warm: usize, reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_nanos() as f64 / inner as f64
        })
        .collect();
    median(&samples).expect("reps > 0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[7.0], 0.5), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond -> printed.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), Some(990.0));
        // 999 samples: rank 990, 9 beyond -> refused.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), None);
        // The median of a small sample is fine.
        assert_eq!(tail_quantile(&[1.0; 30], 0.5), Some(1.0));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn declared_names_are_read_per_section() {
        let doc = r#"{"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [{"name": "a_s", "unit": "s"}, {"name":"b", "unit": "ms"}],
            "per_layer": [{"name": "c.d", "unit": "ns"}]}"#;
        assert_eq!(declared_names(doc, "end_to_end").unwrap(), ["a_s", "b"]);
        assert_eq!(declared_names(doc, "per_layer").unwrap(), ["c.d"]);
        assert_eq!(declared_names(doc, "missing"), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "latency_p50_us",
            "ntt.multiply_ns.n4096",
            "service.graph.latency_us.she_mul.p50",
            "0-start.is-fine",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".leading_dot",
            "_leading_underscore",
            "has space",
            "slash/name",
            "brace{x}",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
