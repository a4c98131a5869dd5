//! Weight initialisers.

use crate::tensor::Tensor;
use rand::Rng;

/// Xavier/Glorot-uniform initialisation for a `(fan_in, fan_out)` matrix
/// shape. For convolution kernels pass the receptive-field-adjusted fans.
pub fn xavier_uniform<R: Rng>(
    rng: &mut R,
    shape: &[usize],
    fan_in: usize,
    fan_out: usize,
) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let n: usize = shape.iter().product();
    let data = (0..n).map(|_| rng.gen_range(-limit..limit)).collect();
    Tensor::from_vec(shape, data)
}

/// Fans for an OIHW convolution kernel.
pub fn conv_fans(shape: &[usize]) -> (usize, usize) {
    assert_eq!(shape.len(), 4);
    let rf = shape[2] * shape[3];
    (shape[1] * rf, shape[0] * rf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_within_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = xavier_uniform(&mut rng, &[50, 50], 50, 50);
        let limit = (6.0f64 / 100.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= limit));
        assert!(t.mean().abs() < 0.02);
    }

    #[test]
    fn conv_fan_computation() {
        assert_eq!(conv_fans(&[8, 4, 1, 3]), (12, 24));
    }
}
