//! Bit-exactness of the dense kernels: `matmul`, `conv2d_forward`,
//! `conv2d_grad_x` and `conv2d_grad_w`.
//!
//! A property test checks the conv kernels against a naive per-element
//! reference in the documented accumulation orders, over randomized shapes.
//! A golden-digest test pins the conv kernels' outputs on every shipped conv
//! shape bit for bit. Empty and 1×1 edges and a finite-difference gradcheck
//! over a two-sample batch round it off.

use ppn_tensor::approx::is_zero;
use ppn_tensor::conv::{
    conv2d_forward, conv2d_grad_w, conv2d_grad_x, same_padding, Dilation, Padding,
};
use ppn_tensor::gradcheck::gradcheck;
use ppn_tensor::{ParamStore, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random NCHW conv case: input, kernel, dilation and padding. Channel
/// counts reach 9, so blocks of four channels come with every remainder.
/// Three padding modes cover each kernel path:
///
/// * causal on both axes with dilated columns (the DCONV layout; the
///   unshifted tap covers whole rows);
/// * SAME rows with dilated causal columns (CCONV-like: with `kw == 1`
///   every tap covers whole rows, which merge into one run);
/// * SAME rows with a kernel as wide as the left-padded input, so the
///   output is one column wide (`Conv4`-like, including invalid taps).
///
/// About one weight in five is exactly zero and about one input in forty
/// is infinite, so the zero-weight skip meets a non-finite input.
#[derive(Debug)]
struct ConvCase {
    x: Tensor,
    w: Tensor,
    dil: Dilation,
    pad: Padding,
}

fn conv_case() -> impl Strategy<Value = ConvCase> {
    let dims =
        ((1usize..4, 1usize..10, 1usize..10), (1usize..4, 1usize..4, 1usize..10, 1usize..13));
    let layout = (1usize..3, 0usize..3, 0usize..3);
    (dims, layout).prop_flat_map(|(((b, cin, cout), (kh, kw, h, w)), (dw, mode, extra))| {
        let (pt, pb) = if mode == 0 { (kh - 1, 0) } else { same_padding(kh, 1) };
        let (kw, pl) = match mode {
            0 | 1 => (kw, dw * (kw - 1)),
            _ => ((w + extra - 1) / dw + 1, extra),
        };
        let x = prop::collection::vec(
            (0u32..40, -5.0..5.0f64).prop_map(|(r, v)| if r == 0 { f64::INFINITY } else { v }),
            b * cin * h * w,
        );
        let k = prop::collection::vec(
            (0u32..5, -5.0..5.0f64).prop_map(|(r, v)| if r == 0 { 0.0 } else { v }),
            cout * cin * kh * kw,
        );
        (x, k).prop_map(move |(x, k)| ConvCase {
            x: Tensor::from_vec(&[b, cin, h, w], x),
            w: Tensor::from_vec(&[cout, cin, kh, kw], k),
            dil: (1, dw),
            pad: (pt, pb, pl, 0),
        })
    })
}

/// `(grad_x, grad_w)` of one conv node.
fn grads(x: &Tensor, w: &Tensor, g: &Tensor, dil: Dilation, pad: Padding) -> (Tensor, Tensor) {
    (conv2d_grad_x(x, w, g, dil, pad), conv2d_grad_w(x, w, g, dil, pad))
}

/// The input coordinate tap `k` of output coordinate `o` reads along one
/// axis, if it lies inside the unpadded input.
fn src(o: usize, k: usize, dil: usize, pad_lo: usize, len: usize) -> Option<usize> {
    (o + k * dil).checked_sub(pad_lo).filter(|&i| i < len)
}

/// Naive per-element conv in the documented accumulation orders: forward
/// sums `ic, ky, kx` from zero, skipping exact-zero weights; grad-x sums
/// `oc, ky, kx`; grad-w sums each sample's window in `(oy, ox)` order and
/// adds the sample sums in ascending `bi`.
fn reference(c: &ConvCase, g: &Tensor) -> [Tensor; 3] {
    let (x, w) = (c.x.data(), c.w.data());
    let [b, cin, h, wid] = [c.x.shape()[0], c.x.shape()[1], c.x.shape()[2], c.x.shape()[3]];
    let [cout, _, kh, kw] = [c.w.shape()[0], c.w.shape()[1], c.w.shape()[2], c.w.shape()[3]];
    let [oh, ow] = [g.shape()[2], g.shape()[3]];
    let ((dh, dw), (pt, _, pl, _)) = (c.dil, c.pad);
    let xi = |bi: usize, ic: usize, iy: usize, ix: usize| ((bi * cin + ic) * h + iy) * wid + ix;
    let wi = |oc: usize, ic: usize, ky: usize, kx: usize| ((oc * cin + ic) * kh + ky) * kw + kx;
    let oi = |bi: usize, oc: usize, oy: usize, ox: usize| ((bi * cout + oc) * oh + oy) * ow + ox;
    let taps = || {
        (0..cin).flat_map(move |ic| (0..kh).flat_map(move |ky| (0..kw).map(move |kx| (ic, ky, kx))))
    };
    let mut y = vec![0.0; b * cout * oh * ow];
    let mut gw = vec![0.0; w.len()];
    for (bi, oc, oy, ox) in (0..b).flat_map(|bi| {
        (0..cout)
            .flat_map(move |oc| (0..oh).flat_map(move |oy| (0..ow).map(move |ox| (bi, oc, oy, ox))))
    }) {
        let mut acc = 0.0;
        for (ic, ky, kx) in taps() {
            let (Some(iy), Some(ix)) = (src(oy, ky, dh, pt, h), src(ox, kx, dw, pl, wid)) else {
                continue;
            };
            if !is_zero(w[wi(oc, ic, ky, kx)]) {
                acc += w[wi(oc, ic, ky, kx)] * x[xi(bi, ic, iy, ix)];
            }
        }
        y[oi(bi, oc, oy, ox)] = acc;
    }
    let mut gx = vec![0.0; x.len()];
    for (bi, ic, iy, ix) in (0..b).flat_map(|bi| {
        (0..cin)
            .flat_map(move |ic| (0..h).flat_map(move |iy| (0..wid).map(move |ix| (bi, ic, iy, ix))))
    }) {
        let mut acc = 0.0;
        for oc in 0..cout {
            for (ky, kx) in (0..kh).flat_map(|ky| (0..kw).map(move |kx| (ky, kx))) {
                let oy = (iy + pt).checked_sub(ky * dh).filter(|&oy| oy < oh);
                let ox = (ix + pl).checked_sub(kx * dw).filter(|&ox| ox < ow);
                if let (Some(oy), Some(ox)) = (oy, ox) {
                    acc += w[wi(oc, ic, ky, kx)] * g.data()[oi(bi, oc, oy, ox)];
                }
            }
        }
        gx[xi(bi, ic, iy, ix)] = acc;
    }
    for oc in 0..cout {
        for (ic, ky, kx) in taps() {
            for bi in 0..b {
                let mut sum = 0.0;
                for (oy, ox) in (0..oh).flat_map(|oy| (0..ow).map(move |ox| (oy, ox))) {
                    if let (Some(iy), Some(ix)) = (src(oy, ky, dh, pt, h), src(ox, kx, dw, pl, wid))
                    {
                        sum += g.data()[oi(bi, oc, oy, ox)] * x[xi(bi, ic, iy, ix)];
                    }
                }
                gw[wi(oc, ic, ky, kx)] += sum;
            }
        }
    }
    [
        Tensor::from_vec(g.shape(), y),
        Tensor::from_vec(c.x.shape(), gx),
        Tensor::from_vec(c.w.shape(), gw),
    ]
}

/// Bit equality, except that any two NaNs match: a NaN's payload is not
/// part of the accumulation-order contract.
fn same_bits(got: &Tensor, want: &Tensor) -> bool {
    got.shape() == want.shape()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conv_matches_naive_reference_bit_for_bit(c in conv_case(), seed in 0u64..1000) {
        let y = conv2d_forward(&c.x, &c.w, c.dil, c.pad);
        let gout = Tensor::randn(&mut StdRng::seed_from_u64(seed), y.shape(), 1.0);
        let (gx, gw) = grads(&c.x, &c.w, &gout, c.dil, c.pad);
        let [ry, rgx, rgw] = reference(&c, &gout);
        prop_assert!(same_bits(&y, &ry), "forward diverged from the reference");
        prop_assert!(same_bits(&gx, &rgx), "grad_x diverged from the reference");
        prop_assert!(same_bits(&gw, &rgw), "grad_w diverged from the reference");
    }
}

#[test]
fn empty_and_unit_matmul_edges() {
    // k = 0: well-defined all-zero output.
    let a = Tensor::from_vec(&[3, 0], vec![]);
    let b = Tensor::from_vec(&[0, 2], vec![]);
    let y = a.matmul(&b);
    assert_eq!(y.shape(), &[3, 2]);
    assert!(y.data().iter().all(|&v| v == 0.0));
    // 1×1 matmul.
    let a1 = Tensor::from_vec(&[1, 1], vec![3.0]);
    let b1 = Tensor::from_vec(&[1, 1], vec![-0.5]);
    assert_eq!(a1.matmul(&b1).data(), &[-1.5]);
}

#[test]
fn unit_conv_edges_match_across_threads() {
    // 1×1 everything: single batch, channel, pixel, kernel.
    let x = Tensor::from_vec(&[1, 1, 1, 1], vec![2.5]);
    let w = Tensor::from_vec(&[1, 1, 1, 1], vec![-2.0]);
    let y = conv2d_forward(&x, &w, (1, 1), (0, 0, 0, 0));
    assert_eq!(y.data(), &[-5.0]);
    let (gx, gw) = grads(&x, &w, &Tensor::ones(&[1, 1, 1, 1]), (1, 1), (0, 0, 0, 0));
    assert_eq!(gx.data(), &[-2.0]);
    assert_eq!(gw.data(), &[2.5]);
}

#[test]
fn gradcheck_passes_under_pooled_kernels() {
    // Finite-difference certification of the conv backward rules over a
    // two-sample batch, so grad-w adds per-sample window sums.
    let mut rng = StdRng::seed_from_u64(21);
    let mut store = ParamStore::new();
    let x = store.add("x", Tensor::randn(&mut rng, &[2, 2, 3, 8], 0.5));
    let w = store.add("w", Tensor::randn(&mut rng, &[4, 2, 1, 3], 0.5));
    let report = gradcheck(
        &mut store,
        |g, bind| {
            let y = g.conv2d(bind.node(x), bind.node(w), (1, 2), (0, 0, 4, 0));
            let sq = g.square(y);
            g.sum(sq)
        },
        1e-5,
        1,
    );
    assert!(report.max_rel_err < 1e-6, "gradcheck failed: {report:?}");
}

/// One conv node of a shipped net: input shape `[c_in, h, w]` (the batch is
/// prepended per run), kernel `[c_out, c_in, kh, kw]`, dilation, padding.
struct NetConv {
    name: &'static str,
    input: [usize; 3],
    kernel: [usize; 4],
    dilation: (usize, usize),
    pad: (usize, usize, usize, usize),
}

/// Every conv node of the paper-default PPN (m = 12 assets, window k = 30,
/// d = 4 features, TCCB channels [8, 16, 16], dilations [1, 2, 4]) plus the
/// decision conv of the small PPN-LSTM (4 assets) that `decide` serves.
const NET_CONVS: [NetConv; 12] = [
    net("b0.dconv1", [4, 12, 30], [8, 4, 1, 3], (1, 1), (0, 0, 2, 0)),
    net("b0.dconv2", [8, 12, 30], [8, 8, 1, 3], (1, 1), (0, 0, 2, 0)),
    net("b0.cconv", [8, 12, 30], [8, 8, 12, 1], (1, 1), (5, 6, 0, 0)),
    net("b1.dconv1", [8, 12, 30], [16, 8, 1, 3], (1, 2), (0, 0, 4, 0)),
    net("b1.dconv2", [16, 12, 30], [16, 16, 1, 3], (1, 2), (0, 0, 4, 0)),
    net("b1.cconv", [16, 12, 30], [16, 16, 12, 1], (1, 1), (5, 6, 0, 0)),
    net("b2.dconv1", [16, 12, 30], [16, 16, 1, 3], (1, 4), (0, 0, 8, 0)),
    net("b2.dconv2", [16, 12, 30], [16, 16, 1, 3], (1, 4), (0, 0, 8, 0)),
    net("b2.cconv", [16, 12, 30], [16, 16, 12, 1], (1, 1), (5, 6, 0, 0)),
    net("conv4", [16, 12, 30], [16, 16, 1, 30], (1, 1), (0, 0, 0, 0)),
    net("decision", [33, 13, 1], [1, 33, 1, 1], (1, 1), (0, 0, 0, 0)),
    net("lstm.decision", [5, 5, 1], [1, 5, 1, 1], (1, 1), (0, 0, 0, 0)),
];

const fn net(
    name: &'static str,
    input: [usize; 3],
    kernel: [usize; 4],
    dilation: (usize, usize),
    pad: (usize, usize, usize, usize),
) -> NetConv {
    NetConv { name, input, kernel, dilation, pad }
}

/// FNV-1a-style fold over the IEEE-754 bit patterns of a tensor's elements.
fn digest(t: &Tensor) -> u64 {
    t.data()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `[forward, grad_x, grad_w]` digests of one net conv at batch `b` on
/// seeded inputs. Inputs are ReLU-clamped like every conv input in the net
/// past the first, and one kernel weight is exactly zero so the zero-weight
/// skip is pinned too.
fn net_conv_digests(c: &NetConv, b: usize, seed: u64) -> [u64; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    let [cin, h, w] = c.input;
    let mut x = Tensor::randn(&mut rng, &[b, cin, h, w], 1.0);
    x.data_mut().iter_mut().step_by(3).for_each(|v| *v = v.max(0.0));
    let mut kern = Tensor::randn(&mut rng, &c.kernel, 0.5);
    let zero_at = kern.len() / 3;
    kern.data_mut()[zero_at] = 0.0;
    let y = conv2d_forward(&x, &kern, c.dilation, c.pad);
    let gout = Tensor::randn(&mut rng, y.shape(), 1.0);
    let (gx, gw) = grads(&x, &kern, &gout, c.dilation, c.pad);
    [digest(&y), digest(&gx), digest(&gw)]
}

/// Golden outputs of the conv kernels on every shipped conv shape, pinned
/// bit for bit: any kernel rewrite must keep each element's accumulation
/// order, so these digests must never change.
#[test]
fn net_conv_shapes_match_golden_digests() {
    const GOLDEN: [(&str, usize, [u64; 3]); 24] = [
        ("b0.dconv1", 16, [0x2c3783e1135e667b, 0x7d8e6f9c7bdb3581, 0xf286d8754975237]),
        ("b0.dconv1", 1, [0x860e60c970aaaa32, 0xdf492c200b221d00, 0x43a64f988668c613]),
        ("b0.dconv2", 16, [0x869ff8467e3fd3af, 0x1c27c0e65247b538, 0x1a41a7100e4f2f03]),
        ("b0.dconv2", 1, [0x45c1e7f4a56b7119, 0x307900f5cd938554, 0xef21f7c38381a066]),
        ("b0.cconv", 16, [0x75d9e704be68396e, 0x271db89aa7c293ee, 0xe3871cb562ec6a31]),
        ("b0.cconv", 1, [0xd0e9f2652836c213, 0x748504793daef83, 0xb2611d015e790277]),
        ("b1.dconv1", 16, [0x1a2a046788d1026c, 0xd52f6f4faeef1596, 0x78741e4dbad18578]),
        ("b1.dconv1", 1, [0x3b3e38fa352363f9, 0x992c3d89cb2cb07a, 0x95b4091c854041ec]),
        ("b1.dconv2", 16, [0x5d32dfd11b76e1b1, 0x526278110406ed93, 0x3d968db75f95951c]),
        ("b1.dconv2", 1, [0xd7680c5dd17860c1, 0x19992c4433a9a945, 0xf587822242b6b507]),
        ("b1.cconv", 16, [0x89eae87a85932956, 0x9e182b68f84babd, 0x382698029f49a76]),
        ("b1.cconv", 1, [0x99b56b536ad81e76, 0xcbbd9dfe695a94fa, 0xe412f2baba045cad]),
        ("b2.dconv1", 16, [0xeaef07884cf5319e, 0xb9bf7a795c8c5594, 0x2376ce792aa7e48f]),
        ("b2.dconv1", 1, [0x67c6afe5f3b3af38, 0x1ba7aaf788f230c1, 0x1b59daed758bdf8d]),
        ("b2.dconv2", 16, [0xf80b97322b7d14af, 0x1241da01e2641ccc, 0x774806d12977588a]),
        ("b2.dconv2", 1, [0xdf976bf0294d0b1e, 0x2144ad755fc36780, 0x9aa5f3211379f56f]),
        ("b2.cconv", 16, [0x1565e029103bdf7, 0xcffcdd0bf898e1f8, 0x1e17364c704d03b3]),
        ("b2.cconv", 1, [0x19bd485996b12017, 0xaf064f48f89de64c, 0x8a7640bbd8fd1d1]),
        ("conv4", 16, [0x49dbc7b70ebcf134, 0x7499b4f6849e3cda, 0x3de79d0ddf29e1b7]),
        ("conv4", 1, [0x45ed3308ee186d48, 0xc3d786291431f98f, 0x142d7038e771f5b5]),
        ("decision", 16, [0x11aa439baaf38381, 0xdebc3d18e21c5dc9, 0xae1cf2b4bee22b6]),
        ("decision", 1, [0xf72d7f881dbb9049, 0xddcff6dcbf0ce77b, 0xddac7c3d2f4b87b9]),
        ("lstm.decision", 16, [0x93861ff4440e795f, 0xa59a98319f9077ab, 0x1a26f8dc723a3ad]),
        ("lstm.decision", 1, [0x9b0d7b6f2e8fb286, 0xa0e00d92adab6b65, 0xbdafdb00517df447]),
    ];
    let got: Vec<_> = NET_CONVS
        .iter()
        .enumerate()
        .flat_map(|(i, c)| [16, 1].map(|b| (c.name, b, net_conv_digests(c, b, 1000 + i as u64))))
        .collect();
    assert_eq!(got.as_slice(), GOLDEN.as_slice(), "conv outputs changed");
}
