//! Integration tests pinning the paper's theoretical statements on live
//! simulated trajectories (Propositions 2–4, Theorems 1–2 shape).

use ppn_repro::market::{
    cost_proportion, max_turnover, prop4_bounds, run_backtest, test_range, turnover_l1, Dataset,
    Ledger, Preset,
};

/// Proposition 4 over an entire high-turnover backtest: the exact implicit
/// cost stays inside the bracket at every period. Replaying the recorded
/// actions through a fresh [`Ledger`] supplies `â_{t−1}` and must reproduce
/// every record's cost and wealth bit for bit.
#[test]
fn prop4_bracket_holds_on_live_trajectory() {
    let ds = Dataset::load(Preset::CryptoB);
    let psi = 0.0025;
    let mut rmr = ppn_repro::baselines::Rmr::new(5.0, 5);
    let r = run_backtest(&ds, &mut rmr, psi, test_range(&ds));
    let mut ledger = Ledger::new(ds.assets() + 1, psi);
    for rec in &r.records {
        let prev = ledger.drifted();
        let sol = cost_proportion(psi, &rec.action, prev, 1e-13);
        let (lo, hi) = prop4_bounds(psi, &rec.action, prev);
        assert!(
            lo <= sol.cost + 1e-10 && sol.cost <= hi + 1e-10,
            "t={}: {lo} ≤ {} ≤ {hi} violated",
            rec.t,
            sol.cost
        );
        assert!(turnover_l1(&rec.action, prev) <= max_turnover(0.0) + 1e-10);
        let replay = ledger.apply(rec.t, rec.action.clone(), ds.relative(rec.t));
        assert_eq!(replay.cost.to_bits(), rec.cost.to_bits(), "t={}: cost", rec.t);
        assert_eq!(replay.wealth.to_bits(), rec.wealth.to_bits(), "t={}: wealth", rec.t);
    }
}

/// Proposition 2's premise: per-period relatives stay within the theorems'
/// `1/e ≤ r ≤ e` band for every preset (the generator clamps log-returns).
#[test]
fn relatives_within_theorem_band_for_all_presets() {
    for preset in Preset::all() {
        let ds = Dataset::load(preset);
        let (lo, hi) = ((-1.0f64).exp(), 1.0f64.exp());
        for t in 0..ds.relatives.len() {
            for &x in ds.relative(t) {
                assert!(x > lo && x < hi, "{}: relative {x} at t={t}", preset.name());
            }
        }
    }
}

/// Theorem 1 shape: adding the λ-variance penalty can lower the achievable
/// mean log-return by at most a λ-scaled amount. We check the *reward
/// function itself*: for any trajectory, R(λ) ≥ R(0) − λ·maxvar where the
/// variance of log-returns in the admissible band is at most (9/4)·... — the
/// band |log r| ≤ 1 caps the variance at 1, giving R(0) − R(λ) ≤ λ·1 ≤ 9λ/4.
#[test]
fn risk_penalty_gap_bounded() {
    use ppn_repro::core::reward::reward_value;
    let ds = Dataset::load(Preset::CryptoA);
    let n = ds.assets() + 1;
    let uniform = vec![1.0 / n as f64; n];
    let t0 = ds.split;
    let actions: Vec<Vec<f64>> = (0..64).map(|_| uniform.clone()).collect();
    let relatives: Vec<Vec<f64>> = (0..64).map(|i| ds.relative(t0 + i).to_vec()).collect();
    let drifted = actions.clone();
    for lambda in [1e-4, 1e-2, 1e-1, 1.0] {
        let (r_l, ..) = reward_value(&actions, &relatives, &drifted, lambda, 0.0, 0.0025);
        let (r_0, ..) = reward_value(&actions, &relatives, &drifted, 0.0, 0.0, 0.0025);
        let gap = r_0 - r_l;
        assert!(gap >= 0.0, "penalty can only reduce the reward");
        assert!(gap <= 2.25 * lambda + 1e-12, "gap {gap} exceeds (9/4)λ for λ={lambda}");
    }
}

/// Theorem 2 shape: the γ-term subtracts at most γ·2(1−ψ)/(1+ψ) per period
/// because the turnover itself is bounded by Proposition 4.
#[test]
fn turnover_penalty_gap_bounded() {
    use ppn_repro::core::reward::reward_value;
    let ds = Dataset::load(Preset::CryptoA);
    let n = ds.assets() + 1;
    let psi = 0.0025;
    // Worst-case churn: flip between all-cash and all-in-asset-1.
    let mut actions = Vec::new();
    let mut drifted = Vec::new();
    for i in 0..32 {
        let mut a = vec![0.0; n];
        let mut h = vec![0.0; n];
        a[i % 2] = 1.0;
        h[(i + 1) % 2] = 1.0;
        actions.push(a);
        drifted.push(h);
    }
    let relatives: Vec<Vec<f64>> = (0..32).map(|i| ds.relative(ds.split + i).to_vec()).collect();
    for gamma in [1e-3, 1e-1, 1.0] {
        let (r_g, ..) = reward_value(&actions, &relatives, &drifted, 0.0, gamma, psi);
        let (r_0, ..) = reward_value(&actions, &relatives, &drifted, 0.0, 0.0, psi);
        let gap = r_0 - r_g;
        // ‖a−â‖₁ ≤ 2, and the theorem's allowance uses the tighter
        // 2(1−ψ)/(1+ψ) for *reachable* rebalances; the raw L1 is ≤ 2.
        assert!(gap >= 0.0 && gap <= gamma * 2.0 + 1e-12, "gap {gap} for γ={gamma}");
    }
}

/// Proposition 3's setting: with no transaction costs, the log-optimal CRP
/// found by brute-force grid search over 2-asset portfolios achieves the
/// highest growth rate among CRPs — a sanity check that our accounting
/// agrees with the Kelly-growth framework the paper builds on.
#[test]
fn log_optimal_crp_dominates_other_crps() {
    let ds = Dataset::load(Preset::CryptoA);
    let range = test_range(&ds);
    // Restrict to cash + asset 1; sweep the weight.
    let growth = |w: f64| -> f64 {
        let mut log_sum = 0.0;
        for t in range.clone() {
            let x = ds.relative(t);
            log_sum += (w * x[1] + (1.0 - w)).ln();
        }
        log_sum
    };
    let best_w = (0..=20)
        .map(|i| i as f64 / 20.0)
        .max_by(|a, b| growth(*a).partial_cmp(&growth(*b)).unwrap())
        .unwrap();
    // The maximiser of the empirical expected log-return has maximal wealth
    // (they are the same quantity): check against a few alternatives.
    for w in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert!(growth(best_w) >= growth(w) - 1e-12);
    }
}
