//! 2-D convolution kernels (forward and backward) used by the graph.
//!
//! Layout is NCHW: input `(B, C_in, H, W)`, kernel `(C_out, C_in, KH, KW)`.
//! Stride is fixed at 1 — the PPN architecture (Table 2 of the paper) only
//! uses stride-1 convolutions. Dilation and asymmetric zero padding are
//! supported because the paper's blocks need:
//!
//! * **DCONV** — dilated *causal* convolution over the time axis (left-pad
//!   only, so no information leaks from the future to the past, §4.3.1);
//! * **CCONV** — *correlational* convolution over the asset axis with SAME
//!   padding (kernel height = m, §4.3.2);
//! * **Conv4 / decision conv** — VALID `1×k` and `1×1` convolutions.

use crate::storage::Storage;
use crate::tensor::Tensor;

/// Dilation factors `(dh, dw)` for the two spatial axes.
pub type Dilation = (usize, usize);

/// Zero padding `(top, bottom, left, right)` on the spatial axes.
pub type Padding = (usize, usize, usize, usize);

/// Output spatial size for one axis.
///
/// `None` when the effective kernel extent exceeds the padded input.
pub fn out_dim(
    input: usize,
    kernel: usize,
    dilation: usize,
    pad_lo: usize,
    pad_hi: usize,
) -> Option<usize> {
    let eff = dilation * (kernel - 1) + 1;
    let padded = input + pad_lo + pad_hi;
    padded.checked_sub(eff).map(|d| d + 1)
}

/// Padding that keeps the axis length unchanged under SAME semantics
/// (asymmetric when the effective kernel extent is even).
pub fn same_padding(kernel: usize, dilation: usize) -> (usize, usize) {
    let eff = dilation * (kernel - 1) + 1;
    ((eff - 1) / 2, eff / 2)
}

/// Causal padding for the time axis: everything on the left.
pub fn causal_padding(kernel: usize, dilation: usize) -> (usize, usize) {
    (dilation * (kernel - 1), 0)
}

/// Channels every kernel advances together: one loaded input (or upstream
/// gradient) run feeds four rows through [`crate::simd::Dispatch::axpy4`],
/// and grad-w keeps four independent accumulators in flight.
const LANES: usize = 4;

/// Kernel columns [`grad_w_col`] sums at once, in a stack buffer.
const COL_SPAN: usize = 32;

/// Shared geometry for one conv call, precomputed once and read by every
/// block of the kernel.
#[derive(Clone, Copy)]
struct ConvDims {
    b: usize,
    cin: usize,
    h: usize,
    wid: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    dh: usize,
    dw: usize,
    pt: usize,
    pl: usize,
    oh: usize,
    ow: usize,
}

impl ConvDims {
    /// Geometry of convolving `x` (NCHW) with `w` (OIHW).
    ///
    /// # Panics
    /// Panics on rank/channel mismatches or when the kernel does not fit.
    fn new(x: &Tensor, w: &Tensor, dilation: Dilation, pad: Padding) -> ConvDims {
        assert_eq!(x.rank(), 4, "conv input must be NCHW, got {:?}", x.shape());
        assert_eq!(w.rank(), 4, "conv kernel must be OIHW, got {:?}", w.shape());
        let (b, cin, h, wid) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (cout, cin2, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        assert_eq!(cin, cin2, "conv channels: input {cin} vs kernel {cin2}");
        let (dh, dw) = dilation;
        let (pt, pb, pl, pr) = pad;
        let oh = out_dim(h, kh, dh, pt, pb).unwrap_or_else(|| {
            // ppn-check: allow(no-panic) documented precondition — see `# Panics` above
            panic!("kernel {kh}x{kw} (dil {dh},{dw}) too large for H={h} pad=({pt},{pb})")
        });
        let ow = out_dim(wid, kw, dw, pl, pr).unwrap_or_else(|| {
            // ppn-check: allow(no-panic) documented precondition — see `# Panics` above
            panic!("kernel {kh}x{kw} (dil {dh},{dw}) too large for W={wid} pad=({pl},{pr})")
        });
        ConvDims { b, cin, h, wid, cout, kh, kw, dh, dw, pt, pl, oh, ow }
    }

    /// Geometry for a backward pass, which also checks that `grad_out` has
    /// the forward output's shape.
    ///
    /// # Panics
    /// Panics like [`ConvDims::new`], or when `grad_out` is not
    /// `(B, C_out, H', W')`.
    fn for_backward(
        x: &Tensor,
        w: &Tensor,
        grad_out: &Tensor,
        dilation: Dilation,
        pad: Padding,
    ) -> ConvDims {
        let d = ConvDims::new(x, w, dilation, pad);
        assert_eq!(
            grad_out.shape(),
            &d.out_shape(),
            "conv grad_out shape {:?} does not match the output shape",
            grad_out.shape()
        );
        d
    }

    fn out_shape(&self) -> [usize; 4] {
        [self.b, self.cout, self.oh, self.ow]
    }
    fn x_stride_c(&self) -> usize {
        self.h * self.wid
    }
    fn x_stride_b(&self) -> usize {
        self.cin * self.x_stride_c()
    }
    fn w_stride_c(&self) -> usize {
        self.kh * self.kw
    }
    fn w_stride_o(&self) -> usize {
        self.cin * self.w_stride_c()
    }
    fn o_stride_c(&self) -> usize {
        self.oh * self.ow
    }
    fn o_stride_b(&self) -> usize {
        self.cout * self.o_stride_c()
    }
    /// Hoisted vertical (row) bounds for kernel tap row `ky`: the input row
    /// offset and the valid output row range.
    fn y_bounds(&self, ky: usize) -> (isize, usize, usize) {
        let iy_off = (ky * self.dh) as isize - self.pt as isize;
        let oy_lo = (-iy_off).max(0) as usize;
        let oy_hi = ((self.h as isize - iy_off).min(self.oh as isize)).max(0) as usize;
        (iy_off, oy_lo, oy_hi)
    }
    /// Hoisted horizontal (column) bounds for kernel tap column `kx`:
    /// `None` when no output column sees valid input, otherwise the output
    /// column range, its length, and the first input column.
    fn x_bounds(&self, kx: usize) -> Option<(usize, usize, usize)> {
        let ix_off = (kx * self.dw) as isize - self.pl as isize;
        let ox_lo = (-ix_off).max(0) as usize;
        let ox_hi = ((self.wid as isize - ix_off).min(self.ow as isize)).max(0) as usize;
        if ox_lo >= ox_hi {
            return None;
        }
        let ix_lo = (ox_lo as isize + ix_off) as usize;
        Some((ox_lo, ox_hi - ox_lo, ix_lo))
    }
    /// The contiguous runs tap `(ky, kx)` pairs up, in ascending output
    /// row order, as `(input offset, output offset, length)` within one
    /// input and one output plane. A run is one output row's valid span;
    /// when it covers whole rows of both planes (`n == ow == W`, every
    /// CCONV tap and the unshifted DCONV tap) the rows are back to back in
    /// both, so they merge into a single run.
    fn tap_runs(
        &self,
        ky: usize,
        kx: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + Clone {
        let (iy_off, oy_lo, oy_hi) = self.y_bounds(ky);
        let (rows, x0, o0, n) = match self.x_bounds(kx) {
            Some((ox_lo, n, ix_lo)) if oy_lo < oy_hi => {
                let iy_lo = (oy_lo as isize + iy_off) as usize;
                (oy_hi - oy_lo, iy_lo * self.wid + ix_lo, oy_lo * self.ow + ox_lo, n)
            }
            _ => (0, 0, 0, 0),
        };
        let (count, len) =
            if n == self.ow && n == self.wid { (rows.min(1), rows * n) } else { (rows, n) };
        let (x_step, o_step) = (self.wid, self.ow);
        (0..count).map(move |r| (x0 + r * x_step, o0 + r * o_step, len))
    }
    /// Kernel columns whose taps see valid input when the output is one
    /// column wide (`ow == 1`); they are contiguous because the input
    /// column `kx·dw − pl` grows with `kx`.
    fn col_taps(&self) -> std::ops::Range<usize> {
        let lo = (0..self.kw).find(|&kx| self.x_bounds(kx).is_some()).unwrap_or(self.kw);
        let hi = (lo..self.kw).find(|&kx| self.x_bounds(kx).is_none()).unwrap_or(self.kw);
        lo..hi
    }
    /// Input column of kernel column `kx` for the single output column.
    fn col_x(&self, kx: usize) -> usize {
        kx * self.dw - self.pl
    }
    /// Input row seen by output row `oy` through kernel row `ky`, if any.
    fn row_y(&self, oy: usize, ky: usize) -> Option<usize> {
        (oy + ky * self.dh).checked_sub(self.pt).filter(|&iy| iy < self.h)
    }
}

/// Forward convolution. Returns `(B, C_out, H', W')`.
///
/// Runs on the calling thread. Each output element accumulates its taps in
/// `ic, ky, kx` order from zero, skipping taps whose weight is exactly
/// zero. The kernel advances four output channels of one sample together;
/// every element keeps that order, so the AVX2 and scalar AXPY paths give
/// bit-identical results.
///
/// # Panics
/// Panics on rank/channel mismatches or when the kernel does not fit.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, dilation: Dilation, pad: Padding) -> Tensor {
    let d = ConvDims::new(x, w, dilation, pad);
    let timer = crate::tensor::kernel_timer();
    let (xd, wd) = (x.data(), w.data());
    let plane = d.o_stride_c();
    let mut out = Storage::zeroed(d.b * d.o_stride_b());
    for_channel_blocks(&mut out, plane, d.cout, |bi, oc0, planes| {
        if d.ow == 1 {
            forward_col(&d, xd, wd, bi, oc0, planes);
        } else {
            forward_rows(&d, xd, wd, bi, oc0, planes);
        }
    });
    crate::tensor::CONV_FWD_MS.observe_since(timer);
    crate::tensor::CONV_MS.observe_since(timer);
    Tensor::from_storage(&d.out_shape(), out)
}

/// Walks `buf` — a `(B, C)` grid of `plane`-element planes — in blocks of
/// at most [`LANES`] channels of one sample, calling
/// `f(sample, first_channel, block)`.
fn for_channel_blocks(
    buf: &mut [f64],
    plane: usize,
    channels: usize,
    mut f: impl FnMut(usize, usize, &mut [f64]),
) {
    let mut p = 0;
    let mut rest = buf;
    while !rest.is_empty() {
        let (bi, c0) = (p / channels, p % channels);
        let n = LANES.min(channels - c0).min(rest.len() / plane);
        let (block, tail) = std::mem::take(&mut rest).split_at_mut(n * plane);
        f(bi, c0, block);
        rest = tail;
        p += n;
    }
}

/// Splits a block of up to [`LANES`] consecutive `len`-element planes into
/// one slice per lane; missing lanes are empty.
fn lanes_mut(block: &mut [f64], len: usize) -> [&mut [f64]; LANES] {
    let mut it = block.chunks_mut(len.max(1));
    std::array::from_fn(|_| it.next().unwrap_or_default())
}

/// Output planes `oc0..oc0 + nb` of sample `bi`, stored back to back in
/// `planes`. Tap-major: each tap's input runs feed all `nb` planes at once
/// through `axpy4`. A tap whose block holds an exact-zero weight falls back
/// to one `axpy` per nonzero channel, so the zero skip stays per channel.
fn forward_rows(d: &ConvDims, xd: &[f64], wd: &[f64], bi: usize, oc0: usize, planes: &mut [f64]) {
    // One dispatch decision per block, not per row.
    let simd = crate::simd::Dispatch::capture();
    let nb = planes.len() / d.o_stride_c();
    let mut out = lanes_mut(planes, d.o_stride_c());
    let xs = &xd[bi * d.x_stride_b()..][..d.x_stride_b()];
    for ic in 0..d.cin {
        let x_plane = &xs[ic * d.x_stride_c()..][..d.x_stride_c()];
        for ky in 0..d.kh {
            for kx in 0..d.kw {
                let tap = oc0 * d.w_stride_o() + ic * d.w_stride_c() + ky * d.kw + kx;
                let wv = lane_weights(wd, tap, d.w_stride_o(), nb);
                let live = wv.map(|v| !crate::approx::is_zero(v));
                tap_axpy(simd, &mut out, x_plane, wv, live, d.tap_runs(ky, kx));
            }
        }
    }
}

/// The weights of `nb` channels at one tap (`at`, `at + stride`, …);
/// missing lanes read zero.
fn lane_weights(wd: &[f64], at: usize, stride: usize, nb: usize) -> [f64; LANES] {
    std::array::from_fn(|r| if r < nb { wd[at + r * stride] } else { 0.0 })
}

/// Adds one tap into up to four lanes: `dst[r][di..][..n] += a[r] ·
/// src[si..][..n]` for every run `(si, di, n)`. With all four lanes live
/// each run is one `axpy4`; otherwise each live lane gets its own `axpy`s
/// and the rest (a missing channel, or forward's exact-zero weight) are
/// skipped.
fn tap_axpy(
    simd: crate::simd::Dispatch,
    dst: &mut [&mut [f64]; LANES],
    src: &[f64],
    a: [f64; LANES],
    live: [bool; LANES],
    runs: impl Iterator<Item = (usize, usize, usize)> + Clone,
) {
    if live == [true; LANES] {
        let [d0, d1, d2, d3] = dst;
        for (si, di, n) in runs {
            let rows =
                [&mut d0[di..][..n], &mut d1[di..][..n], &mut d2[di..][..n], &mut d3[di..][..n]];
            simd.axpy4(rows, &src[si..][..n], a);
        }
    } else {
        for ((row, a), _) in dst.iter_mut().zip(a).zip(live).filter(|(_, l)| *l) {
            for (si, di, n) in runs.clone() {
                simd.axpy(&mut row[di..][..n], &src[si..][..n], a);
            }
        }
    }
}

/// [`forward_rows`] for one-column outputs (`ow == 1`: `Conv4` and the
/// decision conv), where every run is one element long. Each output element
/// is a dot product over `(ic, ky, kx)`, computed for four channels at once.
fn forward_col(d: &ConvDims, xd: &[f64], wd: &[f64], bi: usize, oc0: usize, planes: &mut [f64]) {
    let taps = d.col_taps();
    if taps.is_empty() {
        return;
    }
    let nb = planes.len() / d.oh;
    // A partial block recomputes its last channel in the missing lanes and
    // stores only the `nb` real ones.
    let w_rows: [&[f64]; LANES] =
        std::array::from_fn(|r| &wd[(oc0 + r.min(nb - 1)) * d.w_stride_o()..][..d.w_stride_o()]);
    let xs = &xd[bi * d.x_stride_b()..][..d.x_stride_b()];
    for oy in 0..d.oh {
        let mut acc = [0.0; LANES];
        for ic in 0..d.cin {
            for ky in 0..d.kh {
                let Some(iy) = d.row_y(oy, ky) else { continue };
                let x_row = &xs[ic * d.x_stride_c() + iy * d.wid..][..d.wid];
                let x_taps = x_row[d.col_x(taps.start)..].iter().step_by(d.dw);
                let w_taps = w_rows.map(|w| &w[ic * d.w_stride_c() + ky * d.kw..][taps.clone()]);
                for (j, &xv) in x_taps.take(taps.len()).enumerate() {
                    for (a, w) in acc.iter_mut().zip(&w_taps) {
                        if !crate::approx::is_zero(w[j]) {
                            *a += w[j] * xv;
                        }
                    }
                }
            }
        }
        for (r, &a) in acc.iter().enumerate().take(nb) {
            planes[r * d.oh + oy] = a;
        }
    }
}

/// Input gradient of [`conv2d_forward`]: returns `grad_x` of `x`'s shape
/// given the upstream gradient `grad_out` of shape `(B, C_out, H', W')`.
///
/// Runs on the calling thread, one sample at a time. Each element
/// accumulates from zero in `oc, ky, kx` order (one term per tap that reads
/// it); the kernel advances four input channels of one sample together.
///
/// # Panics
/// Panics like [`conv2d_forward`], and when `grad_out` does not have the
/// forward output's shape.
pub fn conv2d_grad_x(
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    dilation: Dilation,
    pad: Padding,
) -> Tensor {
    let d = ConvDims::for_backward(x, w, grad_out, dilation, pad);
    let timer = crate::tensor::kernel_timer();
    let (wd, gd) = (w.data(), grad_out.data());
    let mut gx = Storage::zeroed(x.len());
    for (bi, gx_sample) in gx.chunks_mut(d.x_stride_b().max(1)).enumerate() {
        if d.ow == 1 {
            grad_x_col(&d, wd, gd, bi, gx_sample);
        } else {
            grad_x_rows(&d, wd, gd, bi, gx_sample);
        }
    }
    crate::tensor::CONV_GRAD_X_MS.observe_since(timer);
    Tensor::from_storage(x.shape(), gx)
}

/// Input gradient of sample `bi` (`gx_sample` is its `(C_in, H, W)` slice):
/// for each `oc`, blocks of four input channels share every `grad_out` run
/// through `axpy4`.
fn grad_x_rows(d: &ConvDims, wd: &[f64], gd: &[f64], bi: usize, gx_sample: &mut [f64]) {
    // One dispatch decision per sample, not per row.
    let simd = crate::simd::Dispatch::capture();
    let gs = &gd[bi * d.o_stride_b()..][..d.o_stride_b()];
    let block_len = (LANES * d.x_stride_c()).max(1);
    for oc in 0..d.cout {
        let g_plane = &gs[oc * d.o_stride_c()..][..d.o_stride_c()];
        for (blk, block) in gx_sample.chunks_mut(block_len).enumerate() {
            let nb = block.len() / d.x_stride_c();
            let live = std::array::from_fn(|r| r < nb);
            let mut gx = lanes_mut(block, d.x_stride_c());
            for ky in 0..d.kh {
                for kx in 0..d.kw {
                    let tap = oc * d.w_stride_o() + blk * LANES * d.w_stride_c() + ky * d.kw + kx;
                    let wv = lane_weights(wd, tap, d.w_stride_c(), nb);
                    let runs = d.tap_runs(ky, kx).map(|(xo, oo, n)| (oo, xo, n));
                    tap_axpy(simd, &mut gx, g_plane, wv, live, runs);
                }
            }
        }
    }
}

/// [`grad_x_rows`] for one-column outputs (`ow == 1`): each upstream
/// gradient element scales a whole kernel row into the input row it read,
/// one `axpy` per `(oc, ic, ky, oy)`. `g·w == w·g` bitwise, so this is the
/// same per-element arithmetic in the same `oc, ky, kx` order.
fn grad_x_col(d: &ConvDims, wd: &[f64], gd: &[f64], bi: usize, gx_sample: &mut [f64]) {
    let simd = crate::simd::Dispatch::capture();
    let taps = d.col_taps();
    if taps.is_empty() {
        return;
    }
    let gs = &gd[bi * d.o_stride_b()..][..d.o_stride_b()];
    for oc in 0..d.cout {
        let g_col = &gs[oc * d.oh..][..d.oh];
        for ic in 0..d.cin {
            let gx_plane = &mut gx_sample[ic * d.x_stride_c()..][..d.x_stride_c()];
            for ky in 0..d.kh {
                let w_row = &wd[oc * d.w_stride_o() + ic * d.w_stride_c() + ky * d.kw..][..d.kw];
                let w_taps = &w_row[taps.clone()];
                for (oy, &g) in g_col.iter().enumerate() {
                    let Some(iy) = d.row_y(oy, ky) else { continue };
                    let gx_row = &mut gx_plane[iy * d.wid..][..d.wid];
                    if d.dw == 1 {
                        simd.axpy(&mut gx_row[d.col_x(taps.start)..], w_taps, g);
                    } else {
                        for (kx, &wv) in taps.clone().zip(w_taps) {
                            gx_row[d.col_x(kx)] += wv * g;
                        }
                    }
                }
            }
        }
    }
}

/// Kernel gradient of [`conv2d_forward`]: returns `grad_w` of `w`'s shape
/// given the upstream gradient `grad_out` of shape `(B, C_out, H', W')`.
///
/// Runs on the calling thread, one output channel at a time. Each element
/// sums its window products per sample from zero in `(oy, ox)` order, then
/// adds the per-sample sums in ascending `bi`. The kernel runs several such
/// sums side by side as independent chains (four input channels of one
/// tap; for one-column outputs, a span of kernel columns): it interleaves
/// them, it never reassociates one.
///
/// # Panics
/// Panics like [`conv2d_forward`], and when `grad_out` does not have the
/// forward output's shape.
pub fn conv2d_grad_w(
    x: &Tensor,
    w: &Tensor,
    grad_out: &Tensor,
    dilation: Dilation,
    pad: Padding,
) -> Tensor {
    let d = ConvDims::for_backward(x, w, grad_out, dilation, pad);
    let timer = crate::tensor::kernel_timer();
    let (xd, gd) = (x.data(), grad_out.data());
    let mut gw = Storage::zeroed(w.len());
    for (oc, gw_plane) in gw.chunks_mut(d.w_stride_o().max(1)).enumerate() {
        if d.ow == 1 {
            grad_w_col(&d, xd, gd, oc, gw_plane);
        } else {
            grad_w_rows(&d, xd, gd, oc, gw_plane);
        }
    }
    crate::tensor::CONV_GRAD_W_MS.observe_since(timer);
    Tensor::from_storage(w.shape(), gw)
}

/// Kernel gradient of output channel `oc` (`gw_plane` is its
/// `(C_in, KH, KW)` slice): per sample and tap, four input channels share
/// each `grad_out` run and keep one accumulator each.
fn grad_w_rows(d: &ConvDims, xd: &[f64], gd: &[f64], oc: usize, gw_plane: &mut [f64]) {
    for bi in 0..d.b {
        let g_plane = &gd[bi * d.o_stride_b() + oc * d.o_stride_c()..][..d.o_stride_c()];
        let xs = &xd[bi * d.x_stride_b()..][..d.x_stride_b()];
        for ic0 in (0..d.cin).step_by(LANES) {
            let nb = LANES.min(d.cin - ic0);
            // A partial block repeats its last channel in the missing lanes
            // and stores only the `nb` real sums.
            let x_planes: [&[f64]; LANES] = std::array::from_fn(|r| {
                &xs[(ic0 + r.min(nb - 1)) * d.x_stride_c()..][..d.x_stride_c()]
            });
            for ky in 0..d.kh {
                for kx in 0..d.kw {
                    let mut acc = [0.0; LANES];
                    for (xo, oo, n) in d.tap_runs(ky, kx) {
                        dot4(&mut acc, &g_plane[oo..][..n], x_planes.map(|p| &p[xo..][..n]));
                    }
                    let tap = ic0 * d.w_stride_c() + ky * d.kw + kx;
                    for (r, &a) in acc.iter().enumerate().take(nb) {
                        gw_plane[tap + r * d.w_stride_c()] += a;
                    }
                }
            }
        }
    }
}

/// `acc[r] += g[j] * x[r][j]` for ascending `j`: four independent
/// accumulation chains sharing one `g` run (all runs have `g`'s length).
fn dot4(acc: &mut [f64; LANES], g: &[f64], x: [&[f64]; LANES]) {
    let n = g.len();
    let (x0, x1, x2, x3) = (&x[0][..n], &x[1][..n], &x[2][..n], &x[3][..n]);
    let [mut a0, mut a1, mut a2, mut a3] = *acc;
    for j in 0..n {
        let gv = g[j];
        a0 += gv * x0[j];
        a1 += gv * x1[j];
        a2 += gv * x2[j];
        a3 += gv * x3[j];
    }
    *acc = [a0, a1, a2, a3];
}

/// [`grad_w_rows`] for one-column outputs (`ow == 1`). Per sample, input
/// channel and kernel row, up to [`COL_SPAN`] adjacent kernel columns
/// accumulate side by side, each its own chain over the output rows: one
/// `axpy` of an input row per upstream gradient element.
fn grad_w_col(d: &ConvDims, xd: &[f64], gd: &[f64], oc: usize, gw_plane: &mut [f64]) {
    let simd = crate::simd::Dispatch::capture();
    let taps = d.col_taps();
    for bi in 0..d.b {
        let g_col = &gd[bi * d.o_stride_b() + oc * d.oh..][..d.oh];
        for ic in 0..d.cin {
            let x_plane = &xd[bi * d.x_stride_b() + ic * d.x_stride_c()..][..d.x_stride_c()];
            for ky in 0..d.kh {
                let gw_row = &mut gw_plane[ic * d.w_stride_c() + ky * d.kw..][..d.kw];
                for kx0 in taps.clone().step_by(COL_SPAN) {
                    let mut sums = [0.0; COL_SPAN];
                    let sums = &mut sums[..COL_SPAN.min(taps.end - kx0)];
                    for (oy, &g) in g_col.iter().enumerate() {
                        let Some(iy) = d.row_y(oy, ky) else { continue };
                        let x_taps = &x_plane[iy * d.wid + d.col_x(kx0)..];
                        if d.dw == 1 {
                            simd.axpy(sums, x_taps, g);
                        } else {
                            for (s, &xv) in sums.iter_mut().zip(x_taps.iter().step_by(d.dw)) {
                                *s += g * xv;
                            }
                        }
                    }
                    for (w, &s) in gw_row[kx0..].iter_mut().zip(&*sums) {
                        *w += s;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dims() {
        assert_eq!(out_dim(30, 3, 1, 2, 0), Some(30)); // causal k=3 d=1
        assert_eq!(out_dim(30, 3, 4, 8, 0), Some(30)); // causal k=3 d=4
        assert_eq!(out_dim(30, 30, 1, 0, 0), Some(1)); // valid 1xk collapse
        assert_eq!(out_dim(3, 5, 1, 0, 0), None);
    }

    #[test]
    fn same_and_causal_padding() {
        assert_eq!(same_padding(3, 1), (1, 1));
        assert_eq!(same_padding(4, 1), (1, 2));
        assert_eq!(causal_padding(3, 4), (8, 0));
    }

    #[test]
    fn identity_kernel_passthrough() {
        let x = Tensor::from_vec(&[1, 1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let y = conv2d_forward(&x, &w, (1, 1), (0, 0, 0, 0));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_1d_convolution() {
        // x = [1,2,3,4], kernel [1,1] valid → moving sums [3,5,7].
        let x = Tensor::from_vec(&[1, 1, 1, 4], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec(&[1, 1, 1, 2], vec![1., 1.]);
        let y = conv2d_forward(&x, &w, (1, 1), (0, 0, 0, 0));
        assert_eq!(y.shape(), &[1, 1, 1, 3]);
        assert_eq!(y.data(), &[3., 5., 7.]);
    }

    #[test]
    fn causal_no_future_leakage() {
        // With causal padding, output[t] must not depend on input[t+1..].
        let mut x1 = vec![1., 2., 3., 4., 5.];
        let x2 = {
            let mut v = x1.clone();
            v[4] = 100.0; // change only the last element
            v
        };
        let w = Tensor::from_vec(&[1, 1, 1, 3], vec![0.5, -1.0, 2.0]);
        let (pl, pr) = causal_padding(3, 1);
        let y1 = conv2d_forward(
            &Tensor::from_vec(&[1, 1, 1, 5], x1.clone()),
            &w,
            (1, 1),
            (0, 0, pl, pr),
        );
        let y2 = conv2d_forward(&Tensor::from_vec(&[1, 1, 1, 5], x2), &w, (1, 1), (0, 0, pl, pr));
        // First four outputs identical, only the last may differ.
        for t in 0..4 {
            assert_eq!(y1.data()[t], y2.data()[t], "leakage at t={t}");
        }
        assert_ne!(y1.data()[4], y2.data()[4]);
        x1[0] = 0.0; // silence unused-mut lint paranoia
        let _ = x1;
    }

    #[test]
    fn dilated_receptive_field() {
        // k=3, d=2, causal: output[t] sees t, t-2, t-4.
        let x = Tensor::from_vec(&[1, 1, 1, 6], vec![1., 0., 0., 0., 0., 1.]);
        let w = Tensor::from_vec(&[1, 1, 1, 3], vec![1., 1., 1.]);
        let (pl, pr) = causal_padding(3, 2);
        let y = conv2d_forward(&x, &w, (1, 2), (0, 0, pl, pr));
        assert_eq!(y.shape(), &[1, 1, 1, 6]);
        // t=0: sees x[-4],x[-2],x[0] → 1. t=4: sees x[0],x[2],x[4] → 1.
        assert_eq!(y.data(), &[1., 0., 1., 0., 1., 1.]);
    }

    #[test]
    fn cconv_mixes_all_assets() {
        // Kernel height = m with SAME padding: every output row sees all rows.
        let m = 4;
        let x = Tensor::from_vec(&[1, 1, m, 1], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec(&[1, 1, m, 1], vec![1., 1., 1., 1.]);
        let (pt, pb) = same_padding(m, 1);
        let y = conv2d_forward(&x, &w, (1, 1), (pt, pb, 0, 0));
        assert_eq!(y.shape(), &[1, 1, m, 1]);
        // Row sums over the visible window (zero-padded outside).
        assert_eq!(y.data(), &[1. + 2. + 3., 10., 9., 3. + 4.]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor::randn(&mut rng, &[2, 2, 3, 5], 1.0);
        let w = Tensor::randn(&mut rng, &[3, 2, 2, 3], 1.0);
        let dil = (1, 2);
        let pad = (1, 0, 4, 0);
        let y = conv2d_forward(&x, &w, dil, pad);
        // Loss = sum(y); upstream grad = ones.
        let gout = Tensor::ones(y.shape());
        let gx = conv2d_grad_x(&x, &w, &gout, dil, pad);
        let gw = conv2d_grad_w(&x, &w, &gout, dil, pad);
        let eps = 1e-5;
        // Spot-check a handful of coordinates of both gradients.
        for &i in &[0usize, 7, 23, 41] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let fp = conv2d_forward(&xp, &w, dil, pad).sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fm = conv2d_forward(&xm, &w, dil, pad).sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-6, "gx[{i}]: fd={fd} ad={}", gx.data()[i]);
        }
        for &i in &[0usize, 5, 17, 31] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let fp = conv2d_forward(&x, &wp, dil, pad).sum();
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fm = conv2d_forward(&x, &wm, dil, pad).sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gw.data()[i]).abs() < 1e-6, "gw[{i}]: fd={fd} ad={}", gw.data()[i]);
        }
    }

    #[test]
    #[should_panic(expected = "does not match the output shape")]
    fn grad_x_rejects_misshapen_grad_out() {
        let x = Tensor::zeros(&[1, 2, 3, 5]);
        let w = Tensor::zeros(&[4, 2, 1, 3]);
        // The VALID output is (1, 4, 3, 3); a causal-padded (…, 5) gradient
        // used to be read as if it fit.
        conv2d_grad_x(&x, &w, &Tensor::zeros(&[1, 4, 3, 5]), (1, 1), (0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "does not match the output shape")]
    fn grad_w_rejects_misshapen_grad_out() {
        let x = Tensor::zeros(&[1, 2, 3, 5]);
        let w = Tensor::zeros(&[4, 2, 1, 3]);
        conv2d_grad_w(&x, &w, &Tensor::zeros(&[1, 4, 3, 5]), (1, 1), (0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "conv channels")]
    fn backward_checks_channels_like_forward() {
        let x = Tensor::zeros(&[1, 2, 3, 5]);
        let w = Tensor::zeros(&[4, 3, 1, 3]);
        conv2d_grad_w(&x, &w, &Tensor::zeros(&[1, 4, 3, 3]), (1, 1), (0, 0, 0, 0));
    }
}
