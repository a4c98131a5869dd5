//! Golden training pins: the exact bits of short training runs.
//!
//! Every `Variant` trains a few steps of a small network on Crypto-A. The
//! pins hold each step's `reward` and `grad_norm` bits, a digest of the final
//! parameter bits and a digest of one eval-mode `act`. One more pin runs two
//! steps of the paper-sized PPN. A change to the tape, the kernels or the
//! optimiser that moves any bit of training fails here; a deliberate change
//! of the numbers must regenerate the table (the failure message prints it).
//!
//! The kernels take AVX2 whenever the CPU has it, so on an AVX2 host the
//! plain runs pin the vector kernels, and
//! `scalar_kernels_train_to_the_same_pinned_bits` reruns two pins under
//! `force_scalar` against the same table. That comparison is only real on
//! an AVX2 host; elsewhere both sides are scalar.

use ppn_core::prelude::*;
use ppn_market::{Dataset, Preset};
use ppn_tensor::simd::force_scalar;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit patterns of a run of `f64`s.
fn digest<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

/// What one pinned run produced.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    rewards: Vec<u64>,
    grad_norms: Vec<u64>,
    params: u64,
    act: u64,
}

fn small_cfg(assets: usize) -> NetConfig {
    NetConfig {
        window: 8,
        lstm_hidden: 4,
        tccb_channels: [2, 3, 3],
        eiie_channels: 3,
        ..NetConfig::paper(assets)
    }
}

fn run(ds: &Dataset, variant: Variant, cfg: NetConfig, steps: usize, batch: usize) -> Pin {
    let mut rng = StdRng::seed_from_u64(7);
    let net = PolicyNet::new(variant, cfg, &mut rng);
    let train = TrainConfig { steps, batch, ..TrainConfig::default() };
    let mut tr = Trainer::with_net(ds, net, RewardConfig::default(), train);
    let (mut rewards, mut grad_norms) = (Vec::new(), Vec::new());
    for _ in 0..steps {
        let s = tr.step();
        rewards.push(s.reward.to_bits());
        grad_norms.push(s.grad_norm.to_bits());
    }
    let net = tr.into_net();
    let params = digest(net.store.ids().flat_map(|id| net.store.value(id).data()));
    let t = ds.split + 5;
    let uniform = vec![1.0 / (ds.assets() + 1) as f64; ds.assets() + 1];
    let act = digest(&net.act(&ds.window(t, net.cfg.window), &uniform));
    Pin { rewards, grad_norms, params, act }
}

fn check(got: &Pin, want: &Golden) {
    let (name, rewards, grad_norms, params, act) = *want;
    let want = Pin { rewards: rewards.to_vec(), grad_norms: grad_norms.to_vec(), params, act };
    assert!(
        *got == want,
        "{name} moved; regenerate its pin if the change is deliberate:\n{}",
        render(name, got)
    );
}

fn render(name: &str, p: &Pin) -> String {
    let hex = |v: &[u64]| v.iter().map(|b| format!("{b:#018x}")).collect::<Vec<_>>().join(", ");
    format!(
        "(\"{name}\", &[{}], &[{}], {:#018x}, {:#018x}),",
        hex(&p.rewards),
        hex(&p.grad_norms),
        p.params,
        p.act
    )
}

type Golden = (&'static str, &'static [u64], &'static [u64], u64, u64);

/// Four steps of batch 4 per variant on [`small_cfg`]; dropout 0.2 is on.
const SMALL: &[Golden] = &[
    (
        "PPN",
        &[0x3f74512c89e1e201, 0x3f93bc548fa73a61, 0xbf68007a552a38af, 0x3fa176c038ce2ed3],
        &[0x3f4fe4e0c8fb6783, 0x3f5974d9e6d20e84, 0x3f452efcae5d5084, 0x3f6643bf7da9504d],
        0xf5cdb67bfd7fb7a3,
        0x5bd4cf866574e6f5,
    ),
    (
        "PPN-I",
        &[0x3f747896b9f476ce, 0xbf63248bfd00b0fa, 0x3f97842bac08fe1a, 0x3f9b5558432982e2],
        &[0x3f4bec9ef4061701, 0x3f314e9ccad9a65f, 0x3f5face6f4f6d508, 0x3f60400fba73e4fb],
        0xf6c64b13a931c1de,
        0xb650b970c7bb8225,
    ),
    (
        "PPN-LSTM",
        &[0x3f74f78ccd1efa7c, 0x3f820c6179802421, 0x3f9906a718d4fc39, 0xbf83d536a0df6eb3],
        &[0x3f1c5c65a70ca306, 0x3f20a1ef980dac7c, 0x3f52b46eda94e9b4, 0x3f4c5f1fc8b60a14],
        0xb8f1e4d1f8ff2950,
        0xacc0b70c0ba7cabd,
    ),
    (
        "PPN-TCB",
        &[0x3f74a20de2f760ee, 0xbf631af73f241667, 0x3f97975f78d2dc8e, 0x3f9b59f0cce86454],
        &[0x3f5fe04e4f554f65, 0x3f562f5c4d652dcc, 0x3f53a52335a0dd60, 0x3f28deefe9f50e1c],
        0x2ac265a73c52ccae,
        0xc15790536f5590b0,
    ),
    (
        "PPN-TCCB",
        &[0x3f74f9a0770ecce5, 0x3f94128617eedcda, 0xbf685edaa235bc14, 0x3fa1b4d06e4d8f96],
        &[0x3f6450d74b7572d9, 0x3f743271d01c3fac, 0x3f685cd769b4a111, 0x3f7573fcb7e50ed4],
        0xcf2c147c95ddd2a8,
        0x2c55f519909a7340,
    ),
    (
        "PPN-TCB-LSTM",
        &[0x3f7520984b684270, 0xbf6391a2d61763b5, 0x3f97dcd0dc14188c, 0x3f9bac586917b61d],
        &[0x3f40a94643a26219, 0x3f56a3eed60cd515, 0x3f644d1debdaef88, 0x3f67c7311edc4823],
        0x5fcd019c8840cb7f,
        0x9bbe081701feb4e3,
    ),
    (
        "PPN-TCCB-LSTM",
        &[0x3f751e4f7de53dd4, 0x3f942ce6cbb87495, 0xbf68129e1791b1de, 0x3fa1bb2c266d64f6],
        &[0x3f3780293d14ec62, 0x3f554e8f4f000d71, 0x3f46854f35f3460d, 0x3f645738dc48bd9d],
        0x2d91bda5d1b46642,
        0x8c6ff202c7b78493,
    ),
    (
        "EIIE",
        &[0x3f74e29424077760, 0x3f81a190ad2e8750, 0x3f9815436f92f18c, 0xbf82625815a064f0],
        &[0x3f0e7bb4639c4fca, 0x3f160a2073a8c5c5, 0x3f2710de4e7e0bc4, 0x3eff58db32220f22],
        0x01e2d9180b8c7543,
        0xc8422c1e3605bf09,
    ),
];

/// Two steps of batch 4 on the paper-sized PPN.
const PAPER_PPN: Golden = (
    "PPN",
    &[0x3f7511c526bb39a9, 0xbf6cf5ef815ffab7],
    &[0x3f6848fe27061bc2, 0x3f73fd015c15113f],
    0x050ba701cd7a5da7,
    0xab1a1ed20308c04d,
);

#[test]
fn every_variant_trains_to_its_pinned_bits() {
    let ds = Dataset::load(Preset::CryptoA);
    let variants = [
        Variant::Ppn,
        Variant::PpnI,
        Variant::PpnLstm,
        Variant::PpnTcb,
        Variant::PpnTccb,
        Variant::PpnTcbLstm,
        Variant::PpnTccbLstm,
        Variant::Eiie,
    ];
    let got: Vec<Pin> =
        variants.iter().map(|&v| run(&ds, v, small_cfg(ds.assets()), 4, 4)).collect();
    let table: String =
        variants.iter().zip(&got).map(|(v, p)| render(v.name(), p) + "\n").collect();
    for ((v, pin), want) in variants.iter().zip(&got).zip(SMALL) {
        assert_eq!(want.0, v.name(), "pin table out of order:\n{table}");
        check(pin, want);
    }
    assert_eq!(SMALL.len(), variants.len(), "pin table incomplete:\n{table}");
}

#[test]
fn paper_ppn_trains_to_its_pinned_bits() {
    let ds = Dataset::load(Preset::CryptoA);
    let got = run(&ds, Variant::Ppn, NetConfig::paper(ds.assets()), 2, 4);
    check(&got, &PAPER_PPN);
}

#[test]
fn scalar_kernels_train_to_the_same_pinned_bits() {
    let ds = Dataset::load(Preset::CryptoA);
    let (paper, small) = force_scalar(|| {
        let paper = run(&ds, Variant::Ppn, NetConfig::paper(ds.assets()), 2, 4);
        (paper, run(&ds, Variant::Ppn, small_cfg(ds.assets()), 4, 4))
    });
    check(&paper, &PAPER_PPN);
    check(&small, &SMALL[0]);
}
