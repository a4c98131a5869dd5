//! Table 3 / Table Sup.1: profitability comparison of all baselines, EIIE,
//! PPN-I and PPN on the four crypto datasets (APV, SR%, CR, TO).

use ppn_bench::{default_config, fnum, run_baselines, run_many, start_run, TableWriter};
use ppn_core::Variant;
use ppn_market::Preset;

fn main() {
    let run = start_run("table3_profitability");
    let presets = [Preset::CryptoA, Preset::CryptoB, Preset::CryptoC, Preset::CryptoD];
    let nets = [Variant::Eiie, Variant::PpnI, Variant::Ppn];

    let mut header = vec!["Algos".to_string()];
    for p in presets {
        for m in ["APV", "SR(%)", "CR", "TO"] {
            header.push(format!("{}:{}", p.name(), m));
        }
    }
    let hdr: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableWriter::new(
        "Table 3 — Performance comparisons on different datasets (psi = 0.25%)",
        &hdr,
    );

    // Classic baselines.
    let base_results: Vec<Vec<(String, ppn_market::Metrics, Vec<f64>)>> =
        presets.iter().map(|&p| run_baselines(p, 0.0025)).collect();
    let names: Vec<String> = base_results[0].iter().map(|(n, ..)| n.clone()).collect();
    for (i, name) in names.iter().enumerate() {
        let mut row = vec![name.clone()];
        for per in &base_results {
            let (_, m, _) = &per[i];
            row.extend([fnum(m.apv), fnum(m.sharpe_pct), fnum(m.calmar), fnum(m.turnover)]);
        }
        table.row(row);
    }

    // Neural strategies (cached): a row-major (net × preset) cell grid,
    // fanned out across the pool.
    let cfgs: Vec<_> = nets.iter().flat_map(|&v| presets.map(|p| default_config(p, v))).collect();
    ppn_obs::obs_info!("[table3] fanning out {} cells ...", cfgs.len());
    let results = run_many("table3_profitability", &cfgs);
    for (v, cells) in nets.iter().zip(results.chunks(presets.len())) {
        let mut row = vec![v.name().to_string()];
        for res in cells {
            let m = &res.metrics;
            row.extend([fnum(m.apv), fnum(m.sharpe_pct), fnum(m.calmar), fnum(m.turnover)]);
        }
        table.row(row);
    }

    table.finish("table3.md");
    let _ = run.finish();
}
