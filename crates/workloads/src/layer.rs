//! Layer-level operator descriptions with exact arithmetic/operand accounting.

use serde::{Deserialize, Serialize};

/// Numeric precision of tensor elements.
///
/// Simba-class accelerators operate on 8-bit integers; the cost model uses
/// the data type only to convert element counts into bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DataType {
    /// 8-bit integer (Simba's native precision; the default).
    #[default]
    Int8,
    /// 16-bit floating point.
    Fp16,
    /// 32-bit floating point.
    Fp32,
}

impl DataType {
    /// Size of one element in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            DataType::Int8 => 1,
            DataType::Fp16 => 2,
            DataType::Fp32 => 4,
        }
    }
}

/// The operator class and shape of a single network layer.
///
/// All dimensions are **per sample**; batching is applied by the model and
/// the cost model. Shapes follow the conventions of the MAESTRO loop-nest
/// notation: convolutions are `K×C×R×S` filters over `C×Y×X` inputs, GEMMs
/// compute `out[M,N] = W[M,K] · in[K,N]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution (optionally grouped / depthwise).
    Conv2d {
        /// Input feature-map height.
        in_h: u64,
        /// Input feature-map width.
        in_w: u64,
        /// Input channels.
        in_ch: u64,
        /// Output channels.
        out_ch: u64,
        /// Filter height.
        kernel_h: u64,
        /// Filter width.
        kernel_w: u64,
        /// Vertical stride.
        stride: u64,
        /// Symmetric zero padding applied on each border.
        padding: u64,
        /// Channel groups (`groups == in_ch == out_ch` for depthwise).
        groups: u64,
    },
    /// Dense matrix multiplication `out[M,N] = W[M,K] · in[K,N]`.
    ///
    /// `n` is the per-sample "free" dimension (sequence length for
    /// transformer projections, 1 for classifier heads). For batched
    /// attention matmuls without weights, see [`LayerKind::MatMul`].
    Gemm {
        /// Output rows (weight rows).
        m: u64,
        /// Contraction dimension.
        k: u64,
        /// Output columns per sample.
        n: u64,
    },
    /// Weight-less batched matrix multiplication (attention scores/context).
    ///
    /// Computes `heads` independent `out[M,N] = A[M,K] · B[K,N]` products;
    /// both operands are activations.
    MatMul {
        /// Output rows.
        m: u64,
        /// Contraction dimension.
        k: u64,
        /// Output columns.
        n: u64,
        /// Number of independent (attention-head) products.
        heads: u64,
    },
    /// 2-D pooling (max or average — cost-equivalent).
    Pool2d {
        /// Input feature-map height.
        in_h: u64,
        /// Input feature-map width.
        in_w: u64,
        /// Channels.
        channels: u64,
        /// Pooling window edge.
        kernel: u64,
        /// Stride.
        stride: u64,
    },
    /// Element-wise binary op over two tensors of `elements` scalars
    /// (residual adds etc.).
    Eltwise {
        /// Scalars per operand.
        elements: u64,
    },
    /// Normalization (layer/batch norm) over `elements` scalars.
    Norm {
        /// Scalars normalized.
        elements: u64,
    },
    /// Row-wise softmax over a `rows × cols` matrix.
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Elements per row.
        cols: u64,
    },
    /// Stand-alone activation over `elements` scalars (when not fused).
    Activation {
        /// Scalars transformed.
        elements: u64,
    },
}

/// What [`LayerKind`]'s count methods panic with: a layer whose counts
/// overflow `u64`, which `Model::validate` rejects where descriptions enter.
const OVERFLOW: &str = "layer arithmetic overflows u64";

/// The product of `factors`, `None` when it overflows `u64`.
fn product(factors: &[u64]) -> Option<u64> {
    factors.iter().try_fold(1u64, |acc, &x| acc.checked_mul(x))
}

impl LayerKind {
    /// Output spatial height/width for convolution-like kinds, `None` when
    /// the padded input overflows `u64`.
    fn conv_out_hw(
        in_h: u64,
        in_w: u64,
        k_h: u64,
        k_w: u64,
        stride: u64,
        padding: u64,
    ) -> Option<(u64, u64)> {
        let padded = |x: u64| padding.checked_mul(2)?.checked_add(x);
        let oh = padded(in_h)?.saturating_sub(k_h) / stride + 1;
        let ow = padded(in_w)?.saturating_sub(k_w) / stride + 1;
        Some((oh, ow))
    }

    /// Number of multiply-accumulate operations (per sample).
    ///
    /// Non-MAC ops (pooling, normalization, softmax, activations) are
    /// converted to MAC-equivalents so one scalar op ≈ one MAC; this is the
    /// same simplification MAESTRO applies when modeling such layers.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn macs(&self) -> u64 {
        self.checked_macs().expect(OVERFLOW)
    }

    /// `macs`, `None` when it overflows `u64`.
    pub(crate) fn checked_macs(&self) -> Option<u64> {
        match *self {
            LayerKind::Conv2d {
                in_h,
                in_w,
                in_ch,
                out_ch,
                kernel_h,
                kernel_w,
                stride,
                padding,
                groups,
            } => {
                let (oh, ow) = Self::conv_out_hw(in_h, in_w, kernel_h, kernel_w, stride, padding)?;
                product(&[oh, ow, out_ch, in_ch / groups, kernel_h, kernel_w])
            }
            LayerKind::Gemm { m, k, n } => product(&[m, k, n]),
            LayerKind::MatMul { m, k, n, heads } => product(&[m, k, n, heads]),
            LayerKind::Pool2d {
                in_h,
                in_w,
                channels,
                kernel,
                stride,
            } => {
                let (oh, ow) = Self::conv_out_hw(in_h, in_w, kernel, kernel, stride, 0)?;
                product(&[oh, ow, channels, kernel, kernel])
            }
            LayerKind::Eltwise { elements } => Some(elements),
            // mean, variance, subtract, divide, scale/shift ≈ 5 passes
            LayerKind::Norm { elements } => product(&[5, elements]),
            // exp, max-subtract, sum, divide ≈ 4 passes
            LayerKind::Softmax { rows, cols } => product(&[4, rows, cols]),
            LayerKind::Activation { elements } => Some(elements),
        }
    }

    /// Input-activation elements read (per sample).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn input_elems(&self) -> u64 {
        self.checked_input_elems().expect(OVERFLOW)
    }

    /// `input_elems`, `None` when it overflows `u64`.
    pub(crate) fn checked_input_elems(&self) -> Option<u64> {
        match *self {
            LayerKind::Conv2d {
                in_h, in_w, in_ch, ..
            } => product(&[in_h, in_w, in_ch]),
            LayerKind::Gemm { k, n, .. } => product(&[k, n]),
            LayerKind::MatMul { m, k, n, heads } => {
                heads.checked_mul(product(&[m, k])?.checked_add(product(&[k, n])?)?)
            }
            LayerKind::Pool2d {
                in_h,
                in_w,
                channels,
                ..
            } => product(&[in_h, in_w, channels]),
            LayerKind::Eltwise { elements } => product(&[2, elements]),
            LayerKind::Norm { elements } => Some(elements),
            LayerKind::Softmax { rows, cols } => product(&[rows, cols]),
            LayerKind::Activation { elements } => Some(elements),
        }
    }

    /// Weight/parameter elements (batch-independent; zero for weight-less ops).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn weight_elems(&self) -> u64 {
        self.checked_weight_elems().expect(OVERFLOW)
    }

    /// `weight_elems`, `None` when it overflows `u64`.
    pub(crate) fn checked_weight_elems(&self) -> Option<u64> {
        match *self {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel_h,
                kernel_w,
                groups,
                ..
            } => product(&[out_ch, in_ch / groups, kernel_h, kernel_w]),
            LayerKind::Gemm { m, k, .. } => product(&[m, k]),
            LayerKind::MatMul { .. }
            | LayerKind::Pool2d { .. }
            | LayerKind::Eltwise { .. }
            | LayerKind::Softmax { .. }
            | LayerKind::Activation { .. } => Some(0),
            // scale + shift vectors; negligible but nonzero
            LayerKind::Norm { .. } => Some(2),
        }
    }

    /// Output-activation elements produced (per sample).
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn output_elems(&self) -> u64 {
        self.checked_output_elems().expect(OVERFLOW)
    }

    /// `output_elems`, `None` when it overflows `u64`.
    pub(crate) fn checked_output_elems(&self) -> Option<u64> {
        match *self {
            LayerKind::Conv2d {
                in_h,
                in_w,
                out_ch,
                kernel_h,
                kernel_w,
                stride,
                padding,
                ..
            } => {
                let (oh, ow) = Self::conv_out_hw(in_h, in_w, kernel_h, kernel_w, stride, padding)?;
                product(&[oh, ow, out_ch])
            }
            LayerKind::Gemm { m, n, .. } => product(&[m, n]),
            LayerKind::MatMul { m, n, heads, .. } => product(&[heads, m, n]),
            LayerKind::Pool2d {
                in_h,
                in_w,
                channels,
                kernel,
                stride,
            } => {
                let (oh, ow) = Self::conv_out_hw(in_h, in_w, kernel, kernel, stride, 0)?;
                product(&[oh, ow, channels])
            }
            LayerKind::Eltwise { elements } => Some(elements),
            LayerKind::Norm { elements } => Some(elements),
            LayerKind::Softmax { rows, cols } => product(&[rows, cols]),
            LayerKind::Activation { elements } => Some(elements),
        }
    }

    /// Short operator-class mnemonic (`conv`, `gemm`, …).
    pub fn op_name(&self) -> &'static str {
        match self {
            LayerKind::Conv2d { .. } => "conv",
            LayerKind::Gemm { .. } => "gemm",
            LayerKind::MatMul { .. } => "matmul",
            LayerKind::Pool2d { .. } => "pool",
            LayerKind::Eltwise { .. } => "eltwise",
            LayerKind::Norm { .. } => "norm",
            LayerKind::Softmax { .. } => "softmax",
            LayerKind::Activation { .. } => "act",
        }
    }
}

/// A named network layer: the unit of scheduling in SCAR (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layer {
    /// Human-readable name (e.g. `"stage2.block0.conv1"`).
    pub name: String,
    /// Operator class and shape.
    pub kind: LayerKind,
}

impl Layer {
    /// Creates a layer from a name and a kind.
    pub fn new(name: impl Into<String>, kind: LayerKind) -> Self {
        Self {
            name: name.into(),
            kind,
        }
    }

    /// MACs per sample. See [`LayerKind::macs`].
    pub fn macs(&self) -> u64 {
        self.kind.macs()
    }

    /// Input-activation bytes per sample for data type `dt`.
    pub fn input_bytes(&self, dt: DataType) -> u64 {
        self.kind.input_elems() * dt.bytes()
    }

    /// Weight bytes (batch-independent) for data type `dt`.
    pub fn weight_bytes(&self, dt: DataType) -> u64 {
        self.kind.weight_elems() * dt.bytes()
    }

    /// Output-activation bytes per sample for data type `dt`.
    pub fn output_bytes(&self, dt: DataType) -> u64 {
        self.kind.output_elems() * dt.bytes()
    }
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.name, self.kind.op_name())
    }
}

/// Convenience constructor for a square-kernel convolution.
pub(crate) fn conv(
    name: impl Into<String>,
    in_hw: u64,
    in_ch: u64,
    out_ch: u64,
    kernel: u64,
    stride: u64,
) -> Layer {
    Layer::new(
        name,
        LayerKind::Conv2d {
            in_h: in_hw,
            in_w: in_hw,
            in_ch,
            out_ch,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            padding: kernel / 2,
            groups: 1,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv3x3() -> LayerKind {
        LayerKind::Conv2d {
            in_h: 56,
            in_w: 56,
            in_ch: 64,
            out_ch: 64,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        }
    }

    #[test]
    fn conv_macs_match_closed_form() {
        // 56*56 output (same padding), 64*64 channel pairs, 9 taps
        assert_eq!(conv3x3().macs(), 56 * 56 * 64 * 64 * 9);
    }

    #[test]
    fn conv_output_dims_respect_stride_and_padding() {
        let k = LayerKind::Conv2d {
            in_h: 224,
            in_w: 224,
            in_ch: 3,
            out_ch: 64,
            kernel_h: 7,
            kernel_w: 7,
            stride: 2,
            padding: 3,
            groups: 1,
        };
        // (224 + 6 - 7)/2 + 1 = 112
        assert_eq!(k.output_elems(), 112 * 112 * 64);
    }

    #[test]
    fn depthwise_conv_divides_macs_by_groups() {
        let dense = conv3x3();
        let dw = LayerKind::Conv2d {
            in_h: 56,
            in_w: 56,
            in_ch: 64,
            out_ch: 64,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            groups: 64,
        };
        assert_eq!(dw.macs() * 64, dense.macs());
        assert_eq!(dw.weight_elems() * 64, dense.weight_elems());
    }

    #[test]
    fn gemm_accounting() {
        let g = LayerKind::Gemm {
            m: 1024,
            k: 768,
            n: 128,
        };
        assert_eq!(g.macs(), 1024 * 768 * 128);
        assert_eq!(g.weight_elems(), 1024 * 768);
        assert_eq!(g.input_elems(), 768 * 128);
        assert_eq!(g.output_elems(), 1024 * 128);
    }

    #[test]
    fn matmul_has_no_weights_and_counts_heads() {
        let a = LayerKind::MatMul {
            m: 128,
            k: 64,
            n: 128,
            heads: 16,
        };
        assert_eq!(a.weight_elems(), 0);
        assert_eq!(a.macs(), 16 * 128 * 64 * 128);
        assert_eq!(a.input_elems(), 16 * (128 * 64 + 64 * 128));
    }

    #[test]
    fn pool_reduces_spatial_size() {
        let p = LayerKind::Pool2d {
            in_h: 112,
            in_w: 112,
            channels: 64,
            kernel: 2,
            stride: 2,
        };
        assert_eq!(p.output_elems(), 56 * 56 * 64);
    }

    #[test]
    fn eltwise_reads_two_operands() {
        let e = LayerKind::Eltwise { elements: 100 };
        assert_eq!(e.input_elems(), 200);
        assert_eq!(e.output_elems(), 100);
        assert_eq!(e.weight_elems(), 0);
    }

    #[test]
    fn datatype_bytes() {
        assert_eq!(DataType::Int8.bytes(), 1);
        assert_eq!(DataType::Fp16.bytes(), 2);
        assert_eq!(DataType::Fp32.bytes(), 4);
        assert_eq!(DataType::default(), DataType::Int8);
    }

    #[test]
    fn layer_display_includes_op() {
        let l = Layer::new("conv1", conv3x3());
        assert_eq!(l.to_string(), "conv1 [conv]");
    }

    #[test]
    fn bytes_scale_with_datatype() {
        let l = Layer::new("g", LayerKind::Gemm { m: 8, k: 4, n: 2 });
        assert_eq!(l.weight_bytes(DataType::Int8), 32);
        assert_eq!(l.weight_bytes(DataType::Fp16), 64);
        assert_eq!(l.weight_bytes(DataType::Fp32), 128);
    }
}
