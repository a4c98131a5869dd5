//! Figure 6: PPN wealth curves on Crypto-A under different γ. Emits
//! `results/fig6_gamma_curves.csv`. The paper-shape to look for: large γ
//! curves go flat (trading stops when costs outweigh the edge).

use ppn_bench::{config_at, run_many, Budget};
use ppn_core::Variant;
use ppn_market::Preset;

fn main() {
    let run = ppn_bench::start_run("fig6_gamma_curves");
    let gammas = [1e-4, 1e-3, 1e-2, 1e-1];
    let cfgs = gammas.map(|gamma| {
        let mut cfg = config_at(Preset::CryptoA, Variant::Ppn, Budget::Sweep);
        cfg.gamma = gamma;
        cfg
    });
    ppn_obs::obs_info!("[fig6] fanning out {} cells ...", cfgs.len());
    let curves: Vec<(String, Vec<f64>)> = gammas
        .iter()
        .zip(run_many("fig6_gamma_curves", &cfgs))
        .map(|(gamma, res)| (format!("gamma={gamma:.0e}"), res.wealth))
        .collect();

    let len = curves.iter().map(|(_, c)| c.len()).min().unwrap_or(0);
    let mut csv = String::from("period");
    for (name, _) in &curves {
        csv.push(',');
        csv.push_str(name);
    }
    csv.push('\n');
    for t in 0..len {
        csv.push_str(&t.to_string());
        for (_, c) in &curves {
            csv.push_str(&format!(",{:.6}", c[t]));
        }
        csv.push('\n');
    }
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/fig6_gamma_curves.csv", &csv).unwrap();
    let series: Vec<ppn_bench::Series> = curves
        .iter()
        .map(|(name, c)| ppn_bench::Series { name: name.clone(), values: c[..len].to_vec() })
        .collect();
    ppn_bench::save_chart(
        &series,
        "Fig. 6 — PPN wealth under different gamma (Crypto-A)",
        "fig6_gamma_curves.svg",
    )
    .unwrap();
    ppn_obs::obs_info!("wrote results/fig6_gamma_curves.csv and .svg ({len} periods)");
    for (name, c) in &curves {
        ppn_obs::obs_info!("{:<12} final APV {:.2}", name, c.last().copied().unwrap_or(1.0));
    }
    let _ = run.finish();
}
