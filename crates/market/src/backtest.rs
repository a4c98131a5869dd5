//! Backtest runner shared by every strategy (classic baselines and networks),
//! and the rebalance [`Ledger`] it shares with the DDPG trainer.
//!
//! Time alignment: an action decided at period `t` is exposed to the price
//! relative `x_t` describing the move from close `t` to close `t+1`. Before
//! deciding, the agent holds the *drifted* weights `â_{t−1}` (Proposition 4's
//! pre-rebalance allocation); rebalancing to `a_t` pays the fixed-point cost
//! from [`crate::cost::cost_proportion`]. [`Ledger`] carries that state from
//! one period to the next.

use crate::cost::cost_proportion;
use crate::dataset::Dataset;
use crate::metrics::{compute, Metrics};
use crate::relatives::{drifted_weights, portfolio_return};

/// What a policy sees when deciding the next portfolio.
pub struct DecisionContext<'a> {
    /// Absolute period index in the dataset.
    pub t: usize,
    /// The dataset (for price windows).
    pub dataset: &'a Dataset,
    /// Price relatives realised so far: `x_0 … x_{t−1}` (cash at index 0).
    pub history: &'a [Vec<f64>],
    /// Current (drifted) holdings `â_{t−1}`, length `m+1`.
    pub drifted: &'a [f64],
    /// Previous action `a_{t−1}` as decided (pre-drift), length `m+1`.
    pub prev_action: &'a [f64],
}

/// Portfolio weights on the `m+1` simplex, cash at index 0.
pub type Weights = Vec<f64>;

/// A portfolio selection policy behind the workspace's batch-first decision
/// API.
///
/// The required method is [`Policy::decide_batch`]: given a slice of
/// independent decision contexts it returns one simplex action per context,
/// in order. Batch-capable implementations (the neural policies) answer the
/// whole slice with a single forward pass; one-off callers go through the
/// provided [`Policy::decide`] adapter, which wraps a single context into a
/// one-element batch. The trait is object-safe — the backtester and the
/// `ppn-serve` inference server both drive it as `&mut dyn Policy`.
///
/// Implementations whose decisions mutate internal state between contexts
/// (the classic online baselines) should implement [`SequentialPolicy`]
/// instead and inherit this trait through its blanket impl.
pub trait Policy {
    /// Display name used in result tables.
    fn name(&self) -> String;

    /// Decides one action per context, in order. Every returned vector must
    /// lie on the `m+1` simplex (cash first), and the output length must
    /// equal `ctxs.len()`.
    fn decide_batch(&mut self, ctxs: &[DecisionContext<'_>]) -> Vec<Weights>;

    /// Single-context adapter over [`Policy::decide_batch`]: wraps `ctx`
    /// into a one-element batch and unwraps the result.
    fn decide(&mut self, ctx: &DecisionContext<'_>) -> Weights {
        let mut out = self.decide_batch(std::slice::from_ref(ctx));
        debug_assert_eq!(out.len(), 1, "decide_batch must return one action per context");
        out.pop().unwrap_or_default()
    }

    /// Resets internal state between backtests (default: no-op).
    fn reset(&mut self) {}
}

/// Per-context decision logic for strategies that update internal state
/// between consecutive decisions (PAMR's mean-reversion updates, UBAH's
/// buy-once flag, the online rolling retrainer, …).
///
/// Such strategies cannot answer a batch with one fused computation — the
/// decision for context `i+1` depends on having decided context `i` — so
/// their batch semantics are fixed by definition: decide each context in
/// slice order. The blanket impl below lifts any `SequentialPolicy` into the
/// batch-first [`Policy`] trait with exactly that loop, keeping the
/// backtester, the experiment harness, and `ppn-serve` on a single API.
pub trait SequentialPolicy {
    /// Display name used in result tables.
    fn name(&self) -> String;

    /// Decides `a_t` for one context. Must lie on the `m+1` simplex.
    fn decide_one(&mut self, ctx: &DecisionContext<'_>) -> Weights;

    /// Resets internal state between backtests (default: no-op).
    fn reset(&mut self) {}
}

impl<T: SequentialPolicy> Policy for T {
    fn name(&self) -> String {
        SequentialPolicy::name(self)
    }

    fn decide_batch(&mut self, ctxs: &[DecisionContext<'_>]) -> Vec<Weights> {
        ctxs.iter().map(|ctx| self.decide_one(ctx)).collect()
    }

    fn reset(&mut self) {
        SequentialPolicy::reset(self)
    }
}

/// One period of a completed backtest.
#[derive(Debug, Clone)]
pub struct PeriodRecord {
    /// Absolute period index.
    pub t: usize,
    /// The action taken.
    pub action: Vec<f64>,
    /// Gross return `a_tᵀ x_t`.
    pub gross_return: f64,
    /// Transaction cost proportion `c_t`.
    pub cost: f64,
    /// Net log-return `log(a_tᵀx_t (1−c_t))`.
    pub net_log_return: f64,
    /// Wealth after the period.
    pub wealth: f64,
    /// Turnover `‖â_{t−1} − a_t·ω_t‖₁`.
    pub turnover: f64,
}

/// Completed backtest: per-period records plus the aggregate metrics.
#[derive(Debug, Clone)]
pub struct BacktestResult {
    /// Strategy display name.
    pub name: String,
    /// Per-period records in time order.
    pub records: Vec<PeriodRecord>,
    /// Aggregate metrics (paper §6.1.2).
    pub metrics: Metrics,
}

impl BacktestResult {
    /// Wealth curve, starting after the first period.
    pub fn wealth_curve(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.wealth).collect()
    }
}

/// One portfolio's rebalance accounting (§5.2.2, Proposition 4).
///
/// Owns the drifted holdings `â_{t−1}`, the previous action `a_{t−1}`, the
/// cost rate ψ and the wealth. [`Ledger::apply`] is the workspace's single
/// copy of one period's arithmetic: rebalancing from `â_{t−1}` to `a_t`
/// pays `c_t` from [`cost_proportion`], and wealth grows by
/// `a_tᵀx_t·(1−c_t)`.
#[derive(Debug)]
pub struct Ledger {
    psi: f64,
    drifted: Vec<f64>,
    prev_action: Vec<f64>,
    wealth: f64,
}

impl Ledger {
    /// All-cash start over `m1 = m+1` coordinates at cost rate `psi`:
    /// `a_0 = â_0 = (1, 0, …, 0)` and wealth 1.
    pub fn new(m1: usize, psi: f64) -> Self {
        let mut cash = vec![0.0; m1];
        cash[0] = 1.0;
        Ledger { psi, drifted: cash.clone(), prev_action: cash, wealth: 1.0 }
    }

    /// Current (drifted) holdings `â_{t−1}`.
    pub fn drifted(&self) -> &[f64] {
        &self.drifted
    }

    /// Previous action `a_{t−1}` as decided (pre-drift).
    pub fn prev_action(&self) -> &[f64] {
        &self.prev_action
    }

    /// Wealth after the last applied period.
    pub fn wealth(&self) -> f64 {
        self.wealth
    }

    /// Rebalances to `action`, exposes it to the price relatives `x` of
    /// period `t` and returns the period's record.
    ///
    /// # Panics
    /// Panics if `action` is off the simplex (see
    /// [`crate::contracts::simplex_violation`]), in release builds too.
    // ppn-check: contract(finite)
    pub fn apply(&mut self, t: usize, action: Vec<f64>, x: &[f64]) -> PeriodRecord {
        let violation = crate::contracts::simplex_violation(&action);
        assert!(
            violation.is_none(),
            "off-simplex action at t={t}: {}",
            violation.unwrap_or_default()
        );
        let sol = cost_proportion(self.psi, &action, &self.drifted, 1e-12);
        let gross = portfolio_return(&action, x);
        let net = gross * (1.0 - sol.cost);
        crate::contracts::assert_finite(&[gross, net], "Ledger::apply period return");
        self.wealth *= net;
        let turnover: f64 =
            self.drifted.iter().zip(&action).map(|(&h, &a)| (h - a * sol.omega).abs()).sum();
        self.drifted = drifted_weights(&action, x);
        self.prev_action.clone_from(&action);
        PeriodRecord {
            t,
            action,
            gross_return: gross,
            cost: sol.cost,
            net_log_return: net.ln(),
            wealth: self.wealth,
            turnover,
        }
    }
}

/// Runs `policy` over periods `range` of `dataset` at cost rate `psi`.
///
/// `range` indexes into the dataset's relative vectors; for a paper-style
/// test-split run use `dataset.split..dataset.periods()-1`.
///
/// The per-period loop is inherently sequential — the context for period
/// `t+1` contains the drifted outcome of the action taken at `t` — so the
/// backtester drives the batch-first [`Policy`] API through its
/// single-context [`Policy::decide`] adapter (batch size 1).
///
/// # Panics
/// Panics if the policy returns an action off the simplex ([`Ledger::apply`]).
pub fn run_backtest(
    dataset: &Dataset,
    policy: &mut dyn Policy,
    psi: f64,
    range: std::ops::Range<usize>,
) -> BacktestResult {
    let _span = ppn_obs::span!("backtest.run");
    policy.reset();
    let name = policy.name();
    let mut ledger = Ledger::new(dataset.assets() + 1, psi);
    let mut peak: f64 = 1.0;
    let mut records = Vec::with_capacity(range.len());
    let periods_counter = ppn_obs::counter("backtest.periods");
    let turnover_hist =
        ppn_obs::histogram("backtest.turnover", &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]);

    for t in range {
        let _period = ppn_obs::span!("backtest.period");
        let action = policy.decide(&DecisionContext {
            t,
            dataset,
            history: &dataset.relatives[..t],
            drifted: ledger.drifted(),
            prev_action: ledger.prev_action(),
        });
        let rec = ledger.apply(t, action, dataset.relative(t));
        peak = peak.max(rec.wealth);
        periods_counter.inc();
        turnover_hist.observe(rec.turnover);
        ppn_obs::event!(
            ppn_obs::Level::Trace,
            "backtest.period",
            policy = name.as_str(),
            t = t,
            portfolio_value = rec.wealth,
            gross_return = rec.gross_return,
            cost = rec.cost,
            turnover = rec.turnover,
            drawdown = 1.0 - rec.wealth / peak,
        );
        records.push(rec);
    }

    let logs: Vec<f64> = records.iter().map(|r| r.net_log_return).collect();
    let curve: Vec<f64> = records.iter().map(|r| r.wealth).collect();
    let tos: Vec<f64> = records.iter().map(|r| r.turnover).collect();
    let metrics = compute(&logs, &curve, &tos);
    ppn_obs::event!(
        ppn_obs::Level::Debug,
        "backtest.finish",
        policy = name.as_str(),
        periods = records.len(),
        apv = metrics.apv,
        mdd = metrics.mdd,
        turnover = metrics.turnover,
    );
    BacktestResult { name, metrics, records }
}

/// The paper's standard test-split range for a dataset.
pub fn test_range(dataset: &Dataset) -> std::ops::Range<usize> {
    dataset.split..dataset.periods() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Preset};

    /// Hold-cash policy used to pin down the accounting. Implements the
    /// batch-first trait directly (stateless, so any batch is trivial).
    struct Cash;
    impl Policy for Cash {
        fn name(&self) -> String {
            "CASH".into()
        }
        fn decide_batch(&mut self, ctxs: &[DecisionContext<'_>]) -> Vec<Weights> {
            ctxs.iter()
                .map(|ctx| {
                    let mut a = vec![0.0; ctx.dataset.assets() + 1];
                    a[0] = 1.0;
                    a
                })
                .collect()
        }
    }

    /// Uniform rebalanced policy, via the sequential shim.
    struct Uniform;
    impl SequentialPolicy for Uniform {
        fn name(&self) -> String {
            "UNIFORM".into()
        }
        fn decide_one(&mut self, ctx: &DecisionContext<'_>) -> Weights {
            let n = ctx.dataset.assets() + 1;
            vec![1.0 / n as f64; n]
        }
    }

    #[test]
    fn cash_policy_keeps_wealth_exactly_one() {
        let ds = Dataset::load(Preset::CryptoA);
        let r = run_backtest(&ds, &mut Cash, 0.0025, 100..300);
        assert!((r.metrics.apv - 1.0).abs() < 1e-12);
        assert_eq!(r.metrics.turnover, 0.0);
        assert_eq!(r.metrics.mdd, 0.0);
    }

    #[test]
    fn costs_reduce_wealth() {
        let ds = Dataset::load(Preset::CryptoA);
        let free = run_backtest(&ds, &mut Uniform, 0.0, 100..600);
        let taxed = run_backtest(&ds, &mut Uniform, 0.01, 100..600);
        assert!(taxed.metrics.apv < free.metrics.apv);
        assert!(taxed.metrics.turnover > 0.0);
    }

    #[test]
    fn wealth_equals_product_of_net_returns() {
        let ds = Dataset::load(Preset::CryptoB);
        let r = run_backtest(&ds, &mut Uniform, 0.0025, 50..250);
        let prod: f64 = r.records.iter().map(|p| p.gross_return * (1.0 - p.cost)).product();
        assert!((r.metrics.apv - prod).abs() < 1e-9);
        // Each net log return consistent with the record.
        for p in &r.records {
            assert!((p.net_log_return - (p.gross_return * (1.0 - p.cost)).ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn first_period_pays_entry_cost_for_uniform() {
        let ds = Dataset::load(Preset::CryptoA);
        let r = run_backtest(&ds, &mut Uniform, 0.0025, 100..101);
        // Buying 12/13 of wealth into assets: c ≈ ψ·(12/13).
        let expect = 0.0025 * (12.0 / 13.0);
        assert!((r.records[0].cost - expect).abs() < 1e-4, "{}", r.records[0].cost);
    }

    /// Counts every context it sees, so batch semantics are observable.
    struct Counting {
        seen: Vec<usize>,
    }
    impl SequentialPolicy for Counting {
        fn name(&self) -> String {
            "COUNTING".into()
        }
        fn decide_one(&mut self, ctx: &DecisionContext<'_>) -> Weights {
            self.seen.push(ctx.t);
            let n = ctx.dataset.assets() + 1;
            vec![1.0 / n as f64; n]
        }
        fn reset(&mut self) {
            self.seen.clear();
        }
    }

    #[test]
    fn decide_adapter_wraps_a_single_context_batch() {
        let ds = Dataset::load(Preset::CryptoA);
        let prev = {
            let mut p = vec![0.0; ds.assets() + 1];
            p[0] = 1.0;
            p
        };
        let ctx = DecisionContext {
            t: 120,
            dataset: &ds,
            history: &ds.relatives[..120],
            drifted: &prev,
            prev_action: &prev,
        };
        let mut p = Counting { seen: Vec::new() };
        let single = Policy::decide(&mut p, &ctx);
        let batched = p.decide_batch(std::slice::from_ref(&ctx));
        assert_eq!(batched.len(), 1);
        assert_eq!(single, batched[0]);
        assert_eq!(p.seen, vec![120, 120], "adapter must route through decide_batch");
    }

    #[test]
    fn sequential_shim_decides_contexts_in_slice_order() {
        let ds = Dataset::load(Preset::CryptoA);
        let prev = {
            let mut p = vec![0.0; ds.assets() + 1];
            p[0] = 1.0;
            p
        };
        let ctxs: Vec<DecisionContext<'_>> = (100..104)
            .map(|t| DecisionContext {
                t,
                dataset: &ds,
                history: &ds.relatives[..t],
                drifted: &prev,
                prev_action: &prev,
            })
            .collect();
        let mut p = Counting { seen: Vec::new() };
        let out = p.decide_batch(&ctxs);
        assert_eq!(out.len(), 4);
        assert_eq!(p.seen, vec![100, 101, 102, 103]);
        Policy::reset(&mut p);
        assert!(p.seen.is_empty(), "blanket impl must forward reset");
    }

    #[test]
    fn sequential_policies_run_under_dyn_policy() {
        // The blanket impl must coerce into the object-safe trait the
        // backtester and server drive.
        let ds = Dataset::load(Preset::CryptoA);
        let mut p: Box<dyn Policy> = Box::new(Counting { seen: Vec::new() });
        let r = run_backtest(&ds, p.as_mut(), 0.0025, 100..110);
        assert_eq!(r.records.len(), 10);
        assert_eq!(r.name, "COUNTING");
    }

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }

    #[test]
    fn ledger_starts_all_cash_and_carries_the_last_action() {
        let ds = Dataset::load(Preset::CryptoA);
        let n = ds.assets() + 1;
        let mut ledger = Ledger::new(n, 0.0025);
        let mut cash = vec![0.0; n];
        cash[0] = 1.0;
        assert_eq!(ledger.prev_action(), cash.as_slice());
        assert_eq!(ledger.drifted(), cash.as_slice());
        assert_eq!(ledger.wealth(), 1.0);
        for t in 100..110 {
            let rec = ledger.apply(t, uniform(n), ds.relative(t));
            assert_eq!(rec.t, t);
            assert_eq!(rec.wealth, ledger.wealth());
            assert_eq!(ledger.prev_action(), uniform(n).as_slice());
            assert_eq!(ledger.drifted(), drifted_weights(&uniform(n), ds.relative(t)).as_slice());
        }
    }

    #[test]
    fn cash_action_pays_nothing_and_keeps_wealth() {
        let ds = Dataset::load(Preset::CryptoA);
        let mut ledger = Ledger::new(ds.assets() + 1, 0.0025);
        let mut cash = vec![0.0; ds.assets() + 1];
        cash[0] = 1.0;
        let rec = ledger.apply(100, cash, ds.relative(100));
        assert!(rec.net_log_return.abs() < 1e-12);
        assert_eq!(rec.cost, 0.0);
        assert_eq!(rec.turnover, 0.0);
        assert_eq!(rec.wealth, 1.0);
    }

    #[test]
    fn net_log_returns_sum_to_log_wealth() {
        let ds = Dataset::load(Preset::CryptoB);
        let n = ds.assets() + 1;
        let mut ledger = Ledger::new(n, 0.0025);
        let log_sum: f64 =
            (200..220).map(|t| ledger.apply(t, uniform(n), ds.relative(t)).net_log_return).sum();
        assert!((ledger.wealth().ln() - log_sum).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "off-simplex action at t=100")]
    fn ledger_rejects_off_simplex_action() {
        let ds = Dataset::load(Preset::CryptoA);
        let mut ledger = Ledger::new(ds.assets() + 1, 0.0);
        ledger.apply(100, vec![0.9; ds.assets() + 1], ds.relative(100));
    }

    #[test]
    fn test_range_is_nonempty_and_in_bounds() {
        let ds = Dataset::load(Preset::CryptoC);
        let r = test_range(&ds);
        assert!(r.start < r.end);
        assert!(r.end <= ds.relatives.len());
    }
}
