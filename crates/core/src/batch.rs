//! Input-batch assembly for the policy networks.
//!
//! A [`WindowBatch`] packages one batch of normalised price windows into the
//! three layouts the network streams consume:
//!
//! * per-timestep matrices `(B·m, d)` for the shared-weight LSTM,
//! * an NCHW tensor `(B, d, m, k)` for the convolutional correlation net,
//! * the recursive previous action (risky part only) as `(B, 1, m, 1)`.

use ppn_tensor::Tensor;

/// One forward batch.
pub struct WindowBatch {
    /// Batch size `B`.
    pub batch: usize,
    /// Risky asset count `m`.
    pub m: usize,
    /// Window length `k`.
    pub k: usize,
    /// Price features `d`.
    pub d: usize,
    /// `k` tensors of shape `(B·m, d)` in time order.
    pub seq_steps: Vec<Tensor>,
    /// `(B, d, m, k)` NCHW tensor.
    pub conv_input: Tensor,
    /// `(B, 1, m, 1)` previous risky weights `a_{t−1,1..m}`.
    pub prev_risky: Tensor,
}

impl WindowBatch {
    /// Builds a batch.
    ///
    /// * `windows[b]` — row-major `(m, k, d)` buffer (as produced by
    ///   `ppn_market::Dataset::window`).
    /// * `prev_actions[b]` — the full `m+1` previous portfolio (cash first);
    ///   only the risky tail is packed.
    ///
    /// # Panics
    /// Panics on inconsistent lengths.
    pub fn new(
        windows: &[impl AsRef<[f64]>],
        prev_actions: &[impl AsRef<[f64]>],
        m: usize,
        k: usize,
        d: usize,
    ) -> Self {
        let b = windows.len();
        assert!(b > 0, "empty batch");
        assert_eq!(prev_actions.len(), b);
        for w in windows {
            assert_eq!(w.as_ref().len(), m * k * d, "window buffer has wrong size");
        }
        for a in prev_actions {
            assert_eq!(a.as_ref().len(), m + 1, "prev action must include cash");
        }

        // Per-timestep (B*m, d) matrices.
        let mut seq_steps = Vec::with_capacity(k);
        for t in 0..k {
            let mut buf = Vec::with_capacity(b * m * d);
            for w in windows {
                let w = w.as_ref();
                for i in 0..m {
                    let base = i * k * d + t * d;
                    buf.extend_from_slice(&w[base..base + d]);
                }
            }
            seq_steps.push(Tensor::from_vec(&[b * m, d], buf));
        }

        // NCHW (B, d, m, k).
        let mut conv = Vec::with_capacity(b * d * m * k);
        for w in windows {
            let w = w.as_ref();
            for c in 0..d {
                for i in 0..m {
                    for t in 0..k {
                        conv.push(w[i * k * d + t * d + c]);
                    }
                }
            }
        }
        let conv_input = Tensor::from_vec(&[b, d, m, k], conv);

        // (B, 1, m, 1) risky previous weights.
        let mut prev = Vec::with_capacity(b * m);
        for a in prev_actions {
            prev.extend_from_slice(&a.as_ref()[1..]);
        }
        let prev_risky = Tensor::from_vec(&[b, 1, m, 1], prev);

        WindowBatch { batch: b, m, k, d, seq_steps, conv_input, prev_risky }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_window(m: usize, k: usize, d: usize, scale: f64) -> Vec<f64> {
        (0..m * k * d).map(|i| scale + i as f64).collect()
    }

    #[test]
    fn layouts_agree() {
        let (m, k, d) = (3, 4, 2);
        let w = toy_window(m, k, d, 0.0);
        let prev = vec![0.4, 0.3, 0.2, 0.1];
        let batch =
            WindowBatch::new(std::slice::from_ref(&w), std::slice::from_ref(&prev), m, k, d);

        assert_eq!(batch.seq_steps.len(), k);
        assert_eq!(batch.seq_steps[0].shape(), &[m, d]);
        assert_eq!(batch.conv_input.shape(), &[1, d, m, k]);
        assert_eq!(batch.prev_risky.shape(), &[1, 1, m, 1]);

        // Cross-check one coordinate: asset 1, time 2, feature 1.
        let expect = w[k * d + 2 * d + 1];
        assert_eq!(batch.seq_steps[2].at(&[1, 1]), expect);
        assert_eq!(batch.conv_input.at(&[0, 1, 1, 2]), expect);
    }

    #[test]
    fn prev_action_drops_cash() {
        let (m, k, d) = (2, 2, 1);
        let b = WindowBatch::new(&[toy_window(m, k, d, 0.0)], &[vec![0.5, 0.3, 0.2]], m, k, d);
        assert_eq!(b.prev_risky.data(), &[0.3, 0.2]);
    }

    #[test]
    fn batch_dimension_stacks() {
        let (m, k, d) = (2, 3, 2);
        let w0 = toy_window(m, k, d, 0.0);
        let w1 = toy_window(m, k, d, 100.0);
        let prev = vec![vec![1.0, 0.0, 0.0], vec![0.0, 0.5, 0.5]];
        let b = WindowBatch::new(&[w0.clone(), w1.clone()], &prev, m, k, d);
        assert_eq!(b.seq_steps[0].shape(), &[2 * m, d]);
        // Second sample's rows come after the first's.
        assert_eq!(b.seq_steps[0].at(&[m, 0]), w1[0]);
        assert_eq!(b.conv_input.at(&[1, 0, 0, 0]), w1[0]);
    }
}
