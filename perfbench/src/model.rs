//! Simulated (modeled) PIM cost per leaf multiply, in the paper's Table II
//! units. These numbers come from the analytic pipeline model behind
//! `CryptoPim::report()`, never from host time: they are deterministic for
//! a seed, and any change in them means the model changed.

use cryptopim::accelerator::CryptoPim;
use modmath::params::ParamSet;

/// Modeled pipelined cost of one multiply at one `(n, q)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafCost {
    /// Pipelined latency, simulated µs.
    pub latency_us: f64,
    /// Energy, simulated µJ.
    pub energy_uj: f64,
}

/// The accelerator's parameter set for a ring: the paper set when `q` is
/// the paper modulus at `n`, otherwise a custom set (16-bit datapath below
/// 2^16, else 32-bit) — the same rule the service uses to admit wide lanes.
pub fn params_for(n: usize, q: u64) -> ParamSet {
    match ParamSet::for_degree(n) {
        Ok(p) if p.q == q => p,
        _ => ParamSet::custom(n, q, if q < 1 << 16 { 16 } else { 32 })
            .expect("every benchmarked ring has a parameter set"),
    }
}

/// Modeled cost of one multiply at `(n, q)`.
pub fn leaf_cost(n: usize, q: u64) -> LeafCost {
    let report = CryptoPim::new(&params_for(n, q))
        .and_then(|acc| acc.report())
        .expect("every benchmarked ring has an accelerator report");
    LeafCost {
        latency_us: report.pipelined.latency_us,
        energy_uj: report.pipelined.energy_uj,
    }
}

/// Per-multiply cost weighted by how many leaf multiplies the workload
/// runs at each ring: `Σ count·cost / Σ count`. `None` without leaves.
pub fn weighted(leaves: &[(LeafCost, u64)]) -> Option<LeafCost> {
    let total: u64 = leaves.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let sum = |f: fn(&LeafCost) -> f64| -> f64 {
        leaves.iter().map(|(l, c)| f(l) * *c as f64).sum::<f64>() / total as f64
    };
    Some(LeafCost {
        latency_us: sum(|l| l.latency_us),
        energy_uj: sum(|l| l.energy_uj),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighting_follows_leaf_counts() {
        let a = LeafCost {
            latency_us: 10.0,
            energy_uj: 1.0,
        };
        let b = LeafCost {
            latency_us: 40.0,
            energy_uj: 4.0,
        };
        let w = weighted(&[(a, 3), (b, 1)]).unwrap();
        assert_eq!(w.latency_us, 17.5);
        assert_eq!(w.energy_uj, 1.75);
        // A ring with no leaves does not move the mean.
        assert_eq!(weighted(&[(a, 5), (b, 0)]).unwrap(), a);
        assert_eq!(weighted(&[(a, 0)]), None);
    }

    #[test]
    fn model_costs_grow_with_degree_and_repeat_exactly() {
        let small = leaf_cost(256, ParamSet::for_degree(256).unwrap().q);
        let large = leaf_cost(4096, ParamSet::for_degree(4096).unwrap().q);
        assert!(large.latency_us > small.latency_us);
        assert!(large.energy_uj > small.energy_uj);
        assert_eq!(small, leaf_cost(256, ParamSet::for_degree(256).unwrap().q));
    }
}
