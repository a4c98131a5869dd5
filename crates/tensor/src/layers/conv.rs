//! Convolution layer wrappers used by the correlation information net.
//!
//! [`Conv2dLayer`] owns an OIHW kernel plus per-channel bias; the padding
//! presets ([`ConvKind`]) encode the three convolution flavours of the
//! paper's Table 2: dilated causal (DCONV), correlational SAME over assets
//! (CCONV), and VALID (Conv4 / decision convolutions).

use crate::conv::{causal_padding, same_padding, Padding};
use crate::graph::{Graph, NodeId};
use crate::init::{conv_fans, xavier_uniform};
use crate::optim::{Binding, ParamId, ParamStore};
use crate::tensor::Tensor;
use rand::Rng;

/// Padding flavour for a [`Conv2dLayer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvKind {
    /// Causal over the time (W) axis, no padding over assets (H): the DCONV
    /// of §4.3.1. Keeps W fixed, requires KH = 1.
    DilatedCausal,
    /// SAME over the asset (H) axis, no padding over time: the CCONV of
    /// §4.3.2. Keeps H fixed, requires KW = 1.
    CorrelationalSame,
    /// No padding (VALID): Conv4 and the 1×1 decision convolution.
    Valid,
}

/// A stride-1 convolution with bias.
pub struct Conv2dLayer {
    w: ParamId, // (Cout, Cin, KH, KW)
    b: ParamId, // (Cout, 1, 1) — broadcasts over (B, Cout, H', W')
    kind: ConvKind,
    dilation: (usize, usize),
    kh: usize,
    kw: usize,
}

impl Conv2dLayer {
    /// Registers kernel/bias under `name.{w,b}`.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's Table 2 layer spec
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: (usize, usize),
        dilation: (usize, usize),
        kind: ConvKind,
    ) -> Self {
        let (kh, kw) = kernel;
        match kind {
            ConvKind::DilatedCausal => assert_eq!(kh, 1, "DCONV kernels are 1×k"),
            ConvKind::CorrelationalSame => assert_eq!(kw, 1, "CCONV kernels are m×1"),
            ConvKind::Valid => {}
        }
        let shape = [c_out, c_in, kh, kw];
        let (fan_in, fan_out) = conv_fans(&shape);
        let w = store.add(format!("{name}.w"), xavier_uniform(rng, &shape, fan_in, fan_out));
        let b = store.add(format!("{name}.b"), Tensor::zeros(&[c_out, 1, 1]));
        Conv2dLayer { w, b, kind, dilation, kh, kw }
    }

    /// Effective padding for an input of the layer's kind.
    pub fn padding(&self) -> Padding {
        match self.kind {
            ConvKind::DilatedCausal => {
                let (pl, pr) = causal_padding(self.kw, self.dilation.1);
                (0, 0, pl, pr)
            }
            ConvKind::CorrelationalSame => {
                let (pt, pb) = same_padding(self.kh, self.dilation.0);
                (pt, pb, 0, 0)
            }
            ConvKind::Valid => (0, 0, 0, 0),
        }
    }

    /// Applies convolution + bias to `x` of shape `(B, C_in, H, W)`.
    pub fn forward(&self, g: &mut Graph, bind: &Binding, x: NodeId) -> NodeId {
        let y = g.conv2d(x, bind.node(self.w), self.dilation, self.padding());
        g.add(y, bind.node(self.b))
    }

    /// Convolution, then bias, inverted dropout at rate `p` (training only)
    /// and ReLU as one fused node ([`Graph::conv_bias_dropout_relu`]).
    pub fn forward_dropout_relu<R: Rng>(
        &self,
        g: &mut Graph,
        bind: &Binding,
        x: NodeId,
        p: f64,
        training: bool,
        rng: &mut R,
    ) -> NodeId {
        let (w, b) = (bind.node(self.w), bind.node(self.b));
        g.conv_bias_dropout_relu(x, w, self.dilation, self.padding(), b, p, training, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(
        kind: ConvKind,
        kernel: (usize, usize),
        dil: (usize, usize),
    ) -> (ParamStore, Conv2dLayer) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let l = Conv2dLayer::new(&mut store, &mut rng, "c", 4, 8, kernel, dil, kind);
        (store, l)
    }

    #[test]
    fn dconv_preserves_time_axis() {
        let (store, l) = layer(ConvKind::DilatedCausal, (1, 3), (1, 4));
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let x = g.leaf(Tensor::zeros(&[2, 4, 5, 30]));
        let y = l.forward(&mut g, &bind, x);
        assert_eq!(g.value(y).shape(), &[2, 8, 5, 30]);
    }

    #[test]
    fn cconv_preserves_asset_axis() {
        let (store, l) = {
            let mut rng = StdRng::seed_from_u64(0);
            let mut store = ParamStore::new();
            let l = Conv2dLayer::new(
                &mut store,
                &mut rng,
                "c",
                4,
                8,
                (5, 1),
                (1, 1),
                ConvKind::CorrelationalSame,
            );
            (store, l)
        };
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let x = g.leaf(Tensor::zeros(&[2, 4, 5, 30]));
        let y = l.forward(&mut g, &bind, x);
        assert_eq!(g.value(y).shape(), &[2, 8, 5, 30]);
    }

    #[test]
    fn valid_collapses_time() {
        let (store, l) = layer(ConvKind::Valid, (1, 30), (1, 1));
        let mut g = Graph::new();
        let bind = store.bind(&mut g);
        let x = g.leaf(Tensor::zeros(&[1, 4, 5, 30]));
        let y = l.forward(&mut g, &bind, x);
        assert_eq!(g.value(y).shape(), &[1, 8, 5, 1]);
    }
}
