//! Figure 5: wealth-curve development of EIIE and every PPN variant over the
//! Crypto-A test period. Emits `results/fig5_curves.csv` with one column per
//! strategy (plus the paper-style summary of final values).

use ppn_bench::{config_at, default_config, run_many, Budget};
use ppn_core::Variant;
use ppn_market::Preset;

fn main() {
    let run = ppn_bench::start_run("fig5_curves");
    let variants = [
        Variant::Eiie,
        Variant::PpnLstm,
        Variant::PpnTcb,
        Variant::PpnTccb,
        Variant::PpnTcbLstm,
        Variant::PpnTccbLstm,
        Variant::PpnI,
        Variant::Ppn,
    ];
    let cfgs = variants.map(|v| match v {
        Variant::Ppn | Variant::PpnI | Variant::Eiie => default_config(Preset::CryptoA, v),
        _ => config_at(Preset::CryptoA, v, Budget::Ablation),
    });
    ppn_obs::obs_info!("[fig5] fanning out {} cells ...", cfgs.len());
    let curves: Vec<(String, Vec<f64>)> = variants
        .iter()
        .zip(run_many("fig5_curves", &cfgs))
        .map(|(v, res)| (v.name().to_string(), res.wealth))
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
    std::fs::write("results/fig5_curves.csv", &csv).unwrap();
    let series: Vec<ppn_bench::Series> = curves
        .iter()
        .map(|(name, c)| ppn_bench::Series { name: name.clone(), values: c[..len].to_vec() })
        .collect();
    ppn_bench::save_chart(
        &series,
        "Fig. 5 — wealth development on Crypto-A (test split)",
        "fig5_curves.svg",
    )
    .unwrap();
    ppn_obs::obs_info!("wrote results/fig5_curves.csv and results/fig5_curves.svg ({len} periods)");
    for (name, c) in &curves {
        ppn_obs::obs_info!("final APV {:<15} {:.2}", name, c.last().copied().unwrap_or(1.0));
    }
    let _ = run.finish();
}
