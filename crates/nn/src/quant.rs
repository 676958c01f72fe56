//! 8-bit quantization — the value format the SparTen hardware computes in.
//!
//! The paper's datapath uses 8-bit values (§3.2's buffering arithmetic and
//! Table 4's MACs are 8-bit). This module provides symmetric per-tensor
//! linear quantization to `i8` with an exact-zero guarantee (a zero value
//! quantizes to zero, so sparsity structure is preserved bit-for-bit),
//! dequantization, and error bounds. The bit-serial baseline model
//! (`sparten-sim`) also uses the quantized magnitudes for Booth encoding.

use sparten_tensor::Tensor3;

/// A symmetrically quantized tensor: `value ≈ scale · q` with `q ∈ i8`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    values: Vec<i8>,
    scale: f32,
    channels: usize,
    height: usize,
    width: usize,
}

impl QuantTensor {
    /// Quantizes a tensor symmetrically to 8 bits. Exact zeros stay zero.
    ///
    /// The scale maps the maximum magnitude to 127; an all-zero tensor gets
    /// scale 1.
    pub fn quantize(t: &Tensor3) -> Self {
        let max = t.as_slice().iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        let values = t
            .as_slice()
            .iter()
            .map(|&v| {
                if v == 0.0 {
                    0
                } else {
                    let q = (v / scale).round().clamp(-127.0, 127.0) as i8;
                    // Preserve the sparsity structure: a non-zero value must
                    // not collapse to zero (round away from zero instead).
                    if q == 0 {
                        if v > 0.0 {
                            1
                        } else {
                            -1
                        }
                    } else {
                        q
                    }
                }
            })
            .collect();
        QuantTensor {
            values,
            scale,
            channels: t.channels(),
            height: t.height(),
            width: t.width(),
        }
    }

    /// The quantized values (Z-first, like [`Tensor3`]).
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// The quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Dequantizes back to floats.
    pub fn dequantize(&self) -> Tensor3 {
        Tensor3::from_vec(
            self.values.iter().map(|&q| q as f32 * self.scale).collect(),
            self.channels,
            self.height,
            self.width,
        )
    }

    /// Number of non-zero quantized values.
    pub fn nnz(&self) -> usize {
        self.values.iter().filter(|&&q| q != 0).count()
    }

    /// Worst-case absolute quantization error: half a step, except for
    /// small values forced away from zero (at most one step).
    pub fn error_bound(&self) -> f32 {
        self.scale
    }
}

/// Maximum absolute dequantization error against the original tensor.
pub fn quantization_error(original: &Tensor3, quant: &QuantTensor) -> f32 {
    original
        .as_slice()
        .iter()
        .zip(quant.dequantize().as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_tensor;

    #[test]
    fn roundtrip_error_is_bounded() {
        let t = random_tensor(8, 6, 6, 0.5, 1);
        let q = QuantTensor::quantize(&t);
        assert!(quantization_error(&t, &q) <= q.error_bound() + 1e-6);
    }

    #[test]
    fn sparsity_structure_is_preserved() {
        let t = random_tensor(16, 5, 5, 0.3, 2);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.nnz(), t.nnz());
        for (&orig, &quant) in t.as_slice().iter().zip(q.values()) {
            assert_eq!(orig == 0.0, quant == 0, "zero structure must match");
        }
    }

    #[test]
    fn all_zero_tensor_quantizes_cleanly() {
        let t = Tensor3::zeros(2, 2, 2);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.nnz(), 0);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn max_magnitude_maps_to_127() {
        let t = Tensor3::from_vec(vec![0.0, -2.54, 1.27, 0.635], 1, 2, 2);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.values().iter().map(|q| q.abs()).max(), Some(127));
        assert!((q.scale() - 0.02).abs() < 1e-6);
    }

    #[test]
    fn tiny_values_do_not_collapse_to_zero() {
        let t = Tensor3::from_vec(vec![100.0, 0.001, -0.001, 0.0], 1, 2, 2);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.nnz(), 3);
    }

    #[test]
    fn quantized_conv_tracks_float_conv() {
        use crate::conv::conv2d;
        use crate::filter::Filter;
        use crate::generate::workload;
        use crate::shape::ConvShape;
        let shape = ConvShape::new(8, 6, 6, 3, 4, 1, 1);
        let w = workload(&shape, 0.5, 0.5, 3);
        let reference = conv2d(&w.input, &w.filters, &shape);
        let qi = QuantTensor::quantize(&w.input).dequantize();
        let qf: Vec<Filter> = w
            .filters
            .iter()
            .map(|f| Filter::new(QuantTensor::quantize(f.weights()).dequantize()))
            .collect();
        let quantized = conv2d(&qi, &qf, &shape);
        // Error per output ≤ window_len · (per-value error · max operand),
        // loosely bounded here against the observed range.
        let max_ref = reference
            .as_slice()
            .iter()
            .fold(0.0f32, |a, &v| a.max(v.abs()));
        for (a, b) in reference.as_slice().iter().zip(quantized.as_slice()) {
            assert!((a - b).abs() < 0.1 * max_ref.max(1.0), "{a} vs {b}");
        }
    }
}
