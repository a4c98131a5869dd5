//! Table 8: generalisation to the stock market — all methods on the
//! S&P500-like daily dataset (APV, SR%, CR, TO).

use ppn_bench::{default_config, fnum, run_baselines, run_many, TableWriter};
use ppn_core::Variant;
use ppn_market::Preset;

fn main() {
    let run = ppn_bench::start_run("table8_sp500");
    let mut table = TableWriter::new(
        "Table 8 — Performance comparisons on the S&P500-like dataset",
        &["Algos", "APV", "SR(%)", "CR", "TO"],
    );

    for (name, m, _) in run_baselines(Preset::Sp500, 0.0025) {
        table.row(vec![name, fnum(m.apv), fnum(m.sharpe_pct), fnum(m.calmar), fnum(m.turnover)]);
    }
    let nets = [Variant::Eiie, Variant::PpnI, Variant::Ppn];
    let cfgs = nets.map(|v| default_config(Preset::Sp500, v));
    ppn_obs::obs_info!("[table8] fanning out {} cells ...", cfgs.len());
    for (v, res) in nets.iter().zip(run_many("table8_sp500", &cfgs)) {
        let m = res.metrics;
        table.row(vec![
            v.name().to_string(),
            fnum(m.apv),
            fnum(m.sharpe_pct),
            fnum(m.calmar),
            fnum(m.turnover),
        ]);
    }
    table.finish("table8.md");
    let _ = run.finish();
}
