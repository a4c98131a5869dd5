//! Element loops of the tape's fused ops.
//!
//! Each fused op replaces a chain of primitive tape nodes with one node and
//! computes, element by element, the same expressions in the same order as
//! the chain did, so forward values and gradients keep every bit. The graph
//! (`crate::graph`) owns the nodes and runs the kernels (convolution,
//! matmul); these functions only fill buffers.
//!
//! * **conv → bias → dropout → ReLU**: `y = relu((conv(x, w) + b) · m)` with
//!   `m` the inverted-dropout factor (`1/keep` or `0`), held as bits. The
//!   epilogue runs in place on the convolution's output buffer, so the tape
//!   keeps one tensor per conv layer, not two.
//! * **LSTM step**, as three nodes: the gates `[i | f | ĉ | o]` from
//!   `z = (x·W + h·U) + b`, written over the buffer of `x·W` (the gates
//!   node drops `h·U` once the gates exist, so the tape keeps neither
//!   product), the cell `c = f·c_prev + i·ĉ`, and the hidden state
//!   `h = o·tanh(c)`.

/// Bits per mask word.
pub(crate) const MASK_BITS: usize = 64;

/// Whether element `e` survived dropout.
fn kept(mask: &[u64], e: usize) -> bool {
    mask[e / MASK_BITS] >> (e % MASK_BITS) & 1 == 1
}

/// Dropout factor of element `e`: `scale` when kept, `0` when dropped.
fn factor(mask: &[u64], e: usize, scale: f64) -> f64 {
    if kept(mask, e) {
        scale
    } else {
        0.0
    }
}

/// `y ← relu((y + bias[c]) · m)` in place over an NCHW tensor, where
/// `plane` is `H·W` and `bias` has one entry per channel. The buffer holds
/// a convolution's output on entry and the op's output on return. Without
/// a mask the factor is skipped, not multiplied by one.
pub(crate) fn bias_dropout_relu_in_place(
    y: &mut [f64],
    bias: &[f64],
    plane: usize,
    mask: Option<(&[u64], f64)>,
) {
    let channels = bias.len();
    for (p, ys) in y.chunks_exact_mut(plane).enumerate() {
        let b = bias[p % channels];
        match mask {
            None => {
                for y in ys.iter_mut() {
                    *y = (*y + b).max(0.0);
                }
            }
            Some((bits, scale)) => {
                for (j, y) in ys.iter_mut().enumerate() {
                    *y = ((*y + b) * factor(bits, p * plane + j, scale)).max(0.0);
                }
            }
        }
    }
}

/// Backward of [`bias_dropout_relu_in_place`], also in place:
/// `g ← (g · [y > 0]) · m`. The ReLU's input is positive exactly where its
/// output is, so the derivative reads the stored output `y`. When `bias_grad` (zeroed, one
/// entry per channel) is given, each plane's result is also summed into
/// its channel in flat order, the order a broadcast reduction to `(C, 1, 1)`
/// adds in.
pub(crate) fn bias_dropout_relu_grad(
    g: &mut [f64],
    y: &[f64],
    plane: usize,
    mask: Option<(&[u64], f64)>,
    mut bias_grad: Option<&mut [f64]>,
) {
    let relu = |v: f64| if v > 0.0 { 1.0 } else { 0.0 };
    let planes = g.chunks_exact_mut(plane).zip(y.chunks_exact(plane));
    for (p, (gs, ys)) in planes.enumerate() {
        match mask {
            None => {
                for (d, &v) in gs.iter_mut().zip(ys) {
                    *d *= relu(v);
                }
            }
            Some((bits, scale)) => {
                for (j, (d, &v)) in gs.iter_mut().zip(ys).enumerate() {
                    *d = (*d * relu(v)) * factor(bits, p * plane + j, scale);
                }
            }
        }
        if let Some(bg) = bias_grad.as_deref_mut() {
            let c = p % bg.len();
            bg[c] = gs.iter().fold(bg[c], |acc, &d| acc + d);
        }
    }
}

fn sigmoid(v: f64) -> f64 {
    1.0 / (1.0 + (-v).exp())
}

/// Gate activations of one LSTM step, written over `xw`: per row of
/// `hidden`-wide segments `[i | f | ĉ | o]`, `z = (xw + hu) + bias` and
/// then sigmoid, sigmoid, tanh, sigmoid.
pub(crate) fn lstm_gates(xw: &mut [f64], hu: &[f64], bias: &[f64], hidden: usize) {
    let width = 4 * hidden;
    for (zr, hr) in xw.chunks_exact_mut(width).zip(hu.chunks_exact(width)) {
        for (j, o) in zr.iter_mut().enumerate() {
            let z = (*o + hr[j]) + bias[j];
            *o = if j / hidden == 2 { z.tanh() } else { sigmoid(z) };
        }
    }
}

/// Backward of [`lstm_gates`] in place: `g ← g · act′`, with the
/// activation derivative read from the stored gates. When `bias_grad`
/// (zeroed, `4H` wide) is given, the rows are also summed into it in row
/// order.
///
/// A saturated gate's `act′` is exactly `0`, so `g` can hold `−0`. No leaf
/// sees that sign: every reader of `g` (the bias sum and the four matmuls
/// of the two products' backward) accumulates from `+0`, and
/// `+0 + (−0)` is `+0`.
pub(crate) fn lstm_gates_grad(
    g: &mut [f64],
    gates: &[f64],
    hidden: usize,
    mut bias_grad: Option<&mut [f64]>,
) {
    let width = 4 * hidden;
    for (gr, yr) in g.chunks_exact_mut(width).zip(gates.chunks_exact(width)) {
        for (j, (d, &v)) in gr.iter_mut().zip(yr).enumerate() {
            let act = if j / hidden == 2 { 1.0 - v * v } else { v * (1.0 - v) };
            *d *= act;
        }
        if let Some(bg) = bias_grad.as_deref_mut() {
            for (b, &d) in bg.iter_mut().zip(gr.iter()) {
                *b += d;
            }
        }
    }
}

/// One row's gate segments: `(i, f, ĉ, o)`.
fn segments(row: &[f64], hidden: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
    let (i, rest) = row.split_at(hidden);
    let (f, rest) = rest.split_at(hidden);
    let (c, o) = rest.split_at(hidden);
    (i, f, c, o)
}

/// `c = f·c_prev + i·ĉ`, row by row.
pub(crate) fn lstm_cell(gates: &[f64], c_prev: &[f64], hidden: usize, out: &mut [f64]) {
    let rows = gates.chunks_exact(4 * hidden).zip(c_prev.chunks_exact(hidden));
    for ((gr, pr), cr) in rows.zip(out.chunks_exact_mut(hidden)) {
        let (i, f, ch, _) = segments(gr, hidden);
        for j in 0..hidden {
            cr[j] = f[j] * pr[j] + i[j] * ch[j];
        }
    }
}

/// Backward of [`lstm_cell`]. Writes the gate gradient `[g·ĉ | g·c_prev |
/// g·i | 0]` into `g_gates` and turns `g` into `c_prev`'s gradient `g·f`.
pub(crate) fn lstm_cell_grad(
    g: &mut [f64],
    gates: &[f64],
    c_prev: &[f64],
    hidden: usize,
    g_gates: &mut [f64],
) {
    let rows = g.chunks_exact_mut(hidden).zip(gates.chunks_exact(4 * hidden));
    for (((gr, yr), pr), dr) in
        rows.zip(c_prev.chunks_exact(hidden)).zip(g_gates.chunks_exact_mut(4 * hidden))
    {
        let (i, f, ch, _) = segments(yr, hidden);
        let (di, rest) = dr.split_at_mut(hidden);
        let (df, rest) = rest.split_at_mut(hidden);
        let (dc, do_) = rest.split_at_mut(hidden);
        for j in 0..hidden {
            di[j] = gr[j] * ch[j];
            df[j] = gr[j] * pr[j];
            dc[j] = gr[j] * i[j];
            do_[j] = 0.0;
            gr[j] *= f[j];
        }
    }
}

/// `h = o·tanh(c)`; also stores `tanh(c)` for the backward pass.
pub(crate) fn lstm_hidden(
    gates: &[f64],
    c: &[f64],
    hidden: usize,
    tanh_c: &mut [f64],
    out: &mut [f64],
) {
    let rows = gates.chunks_exact(4 * hidden).zip(c.chunks_exact(hidden));
    for (((gr, cr), tr), hr) in
        rows.zip(tanh_c.chunks_exact_mut(hidden)).zip(out.chunks_exact_mut(hidden))
    {
        let (_, _, _, o) = segments(gr, hidden);
        for j in 0..hidden {
            tr[j] = cr[j].tanh();
            hr[j] = o[j] * tr[j];
        }
    }
}

/// Backward of [`lstm_hidden`]. Writes the gate gradient `[0 | 0 | 0 |
/// g·tanh(c)]` into `g_gates` and turns `g` into the cell's gradient
/// `(g·o)·(1 − tanh²(c))`.
pub(crate) fn lstm_hidden_grad(
    g: &mut [f64],
    gates: &[f64],
    tanh_c: &[f64],
    hidden: usize,
    g_gates: &mut [f64],
) {
    let rows = g.chunks_exact_mut(hidden).zip(gates.chunks_exact(4 * hidden));
    for (((gr, yr), tr), dr) in
        rows.zip(tanh_c.chunks_exact(hidden)).zip(g_gates.chunks_exact_mut(4 * hidden))
    {
        let (_, _, _, o) = segments(yr, hidden);
        let (rest, do_) = dr.split_at_mut(3 * hidden);
        rest.fill(0.0);
        for j in 0..hidden {
            do_[j] = gr[j] * tr[j];
            gr[j] = (gr[j] * o[j]) * (1.0 - tr[j] * tr[j]);
        }
    }
}
