//! Convolution and pooling primitives on `[N, C, H, W]` tensors.
//!
//! Two independent forward implementations of the 2-D convolution are provided:
//! a direct 7-deep loop nest ([`conv2d_forward`]) and an im2col + matmul
//! formulation ([`conv2d_forward_im2col`]). They compute the same sums in a
//! different order and agree up to floating-point rounding, not bit for bit:
//! the direct loop starts each accumulator at the bias and skips padded taps,
//! while im2col multiplies the zero-padded taps in and adds the bias after the
//! product. The differential proptests pin agreement within an absolute 1e-3,
//! which gives the test suite a cross-check and the benchmark crate an
//! ablation point (direct vs im2col throughput). Each implementation on its
//! own is bit-identical between a stacked batch and its samples one by one.
//!
//! All functions operate on single-precision tensors in the layouts used by
//! `dnnip-nn`:
//!
//! * activations: `[N, C, H, W]`
//! * convolution weights: `[OC, C, KH, KW]`
//! * convolution bias: `[OC]`

use crate::shape::{self, conv_out_dim};
use crate::{Result, Tensor, TensorError};

/// Geometry of a convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride applied along both spatial axes.
    pub stride: usize,
    /// Zero padding applied on every spatial border.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Geometry with a square `k`×`k` kernel, the given stride and padding.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of `h`×`w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        Ok((
            conv_out_dim(h, self.kh, self.stride, self.pad)?,
            conv_out_dim(w, self.kw, self.stride, self.pad)?,
        ))
    }
}

fn expect_rank4(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.shape().to_vec(),
            op,
        });
    }
    Ok((t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]))
}

/// Direct (loop-nest) 2-D convolution forward pass.
///
/// * `input` — `[N, C, H, W]`
/// * `weight` — `[OC, C, KH, KW]`
/// * `bias` — `[OC]`
///
/// Returns the output activations `[N, OC, OH, OW]`.
///
/// # Errors
///
/// Returns a [`TensorError`] when tensor ranks, channel counts or window geometry
/// are inconsistent.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_forward")?;
    let (oc, wc, kh, kw) = expect_rank4(weight, "conv2d_forward(weight)")?;
    check_conv_args(c, wc, kh, kw, bias, oc, geom)?;
    let (oh, ow) = geom.output_hw(h, w)?;

    let mut out = vec![0.0f32; n * oc * oh * ow];
    let ind = input.data();
    let wd = weight.data();
    let bd = bias.data();

    for ni in 0..n {
        for oci in 0..oc {
            let b = bd[oci];
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = b;
                    for ci in 0..c {
                        for khi in 0..kh {
                            let ih = ohi * geom.stride + khi;
                            if ih < geom.pad || ih - geom.pad >= h {
                                continue;
                            }
                            let ih = ih - geom.pad;
                            for kwi in 0..kw {
                                let iw = owi * geom.stride + kwi;
                                if iw < geom.pad || iw - geom.pad >= w {
                                    continue;
                                }
                                let iw = iw - geom.pad;
                                let iv = ind[((ni * c + ci) * h + ih) * w + iw];
                                let wv = wd[((oci * c + ci) * kh + khi) * kw + kwi];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[((ni * oc + oci) * oh + ohi) * ow + owi] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

fn check_conv_args(
    c: usize,
    wc: usize,
    kh: usize,
    kw: usize,
    bias: &Tensor,
    oc: usize,
    geom: Conv2dGeometry,
) -> Result<()> {
    if wc != c {
        return Err(TensorError::InvalidGeometry {
            reason: format!("weight expects {wc} input channels, input has {c}"),
        });
    }
    if kh != geom.kh || kw != geom.kw {
        return Err(TensorError::InvalidGeometry {
            reason: format!(
                "weight kernel {kh}x{kw} disagrees with geometry {}x{}",
                geom.kh, geom.kw
            ),
        });
    }
    if bias.ndim() != 1 || bias.shape()[0] != oc {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![oc],
            rhs: bias.shape().to_vec(),
            op: "conv2d(bias)",
        });
    }
    Ok(())
}

/// Copy one sample's receptive fields into an im2col layout.
///
/// `out` must be zeroed where padding positions land; this writes only the
/// in-bounds entries. Row `r` of the im2col matrix starts at `out[r *
/// row_stride + col_offset]` — `row_stride`/`col_offset` are what let the
/// batched lowering write each sample's columns straight into its slot of the
/// shared `[C*KH*KW, N*OH*OW]` matrix without a per-sample staging tensor.
#[allow(clippy::too_many_arguments)] // internal hot loop; the args are the full addressing scheme
fn im2col_scatter(
    sd: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
    oh: usize,
    ow: usize,
    out: &mut [f32],
    row_stride: usize,
    col_offset: usize,
) {
    for ci in 0..c {
        for khi in 0..geom.kh {
            for kwi in 0..geom.kw {
                let r = (ci * geom.kh + khi) * geom.kw + kwi;
                for ohi in 0..oh {
                    let ih = ohi * geom.stride + khi;
                    if ih < geom.pad || ih - geom.pad >= h {
                        continue;
                    }
                    let ih = ih - geom.pad;
                    for owi in 0..ow {
                        let iw = owi * geom.stride + kwi;
                        if iw < geom.pad || iw - geom.pad >= w {
                            continue;
                        }
                        let iw = iw - geom.pad;
                        out[r * row_stride + col_offset + ohi * ow + owi] =
                            sd[(ci * h + ih) * w + iw];
                    }
                }
            }
        }
    }
}

/// Lower a raw `[C, H, W]` slice into an im2col matrix written into a
/// caller-owned buffer; returns the matrix dimensions `(C*KH*KW, OH*OW)`.
///
/// The buffer is resized and **fully overwritten** (zeros where padding
/// lands), so a reused arena buffer produces bit-identical results to a fresh
/// allocation. This is the allocation-free core of [`im2col`], threaded
/// through the batched gradient engine's [`crate::ScratchArena`].
///
/// # Errors
///
/// Returns a [`TensorError`] when `sample` is not `c*h*w` long or the window
/// geometry is invalid.
pub fn im2col_slice_into(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
    out: &mut Vec<f32>,
) -> Result<(usize, usize)> {
    if sample.len() != c * h * w {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![c, h, w],
            data_len: sample.len(),
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let cols = oh * ow;
    out.clear();
    out.resize(rows * cols, 0.0);
    im2col_scatter(sample, c, h, w, geom, oh, ow, out, cols, 0);
    Ok((rows, cols))
}

/// Lower one `[C, H, W]` sample into an im2col matrix `[C*KH*KW, OH*OW]`.
///
/// Column `p` of the result holds the receptive field that produces output pixel
/// `p` (row-major over `OH`×`OW`); zero padding contributes explicit zeros.
/// Allocating wrapper around [`im2col_slice_into`].
///
/// # Errors
///
/// Returns a [`TensorError`] for non-rank-3 input or invalid window geometry.
pub fn im2col(sample: &Tensor, geom: Conv2dGeometry) -> Result<Tensor> {
    if sample.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: sample.shape().to_vec(),
            op: "im2col",
        });
    }
    let (c, h, w) = (sample.shape()[0], sample.shape()[1], sample.shape()[2]);
    let mut out = Vec::new();
    let (rows, cols) = im2col_slice_into(sample.data(), c, h, w, geom, &mut out)?;
    Tensor::from_vec(out, &[rows, cols])
}

/// Scatter an im2col-layout matrix back onto a `[C, H, W]` image, **summing**
/// overlapping contributions — the adjoint of [`im2col`].
///
/// `cols` has shape `[C*KH*KW, OH*OW]`; entry `(r, p)` is added to the input
/// pixel that [`im2col`] read into that position (contributions that came from
/// zero padding are dropped). This turns the convolution's input gradient into
/// two dense steps: `grad_cols = Wᵀ · grad_out` followed by `col2im(grad_cols)`.
///
/// # Errors
///
/// Returns a [`TensorError`] when `cols` is not rank-2, its shape disagrees with
/// the geometry, or the window does not fit the target image.
pub fn col2im(cols: &Tensor, geom: Conv2dGeometry, c: usize, h: usize, w: usize) -> Result<Tensor> {
    if cols.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: cols.shape().to_vec(),
            op: "col2im",
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let ncols = oh * ow;
    if cols.shape() != [rows, ncols] {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![rows, ncols],
            rhs: cols.shape().to_vec(),
            op: "col2im",
        });
    }
    let mut out = Vec::new();
    col2im_slice_into(cols.data(), geom, c, h, w, &mut out)?;
    Tensor::from_vec(out, &[c, h, w])
}

/// Scatter a raw im2col-layout slice back onto a `[C, H, W]` image written
/// into a caller-owned buffer — the allocation-free core of [`col2im`].
///
/// The buffer is resized to `c*h*w`, zeroed, and then accumulated into, so a
/// reused arena buffer produces bit-identical results to a fresh allocation.
///
/// # Errors
///
/// Returns a [`TensorError`] when `cols` is not `C*KH*KW × OH*OW` long or the
/// window does not fit the target image.
pub fn col2im_slice_into(
    cols: &[f32],
    geom: Conv2dGeometry,
    c: usize,
    h: usize,
    w: usize,
    out: &mut Vec<f32>,
) -> Result<()> {
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let ncols = oh * ow;
    if cols.len() != rows * ncols {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![rows, ncols],
            data_len: cols.len(),
        });
    }
    out.clear();
    out.resize(c * h * w, 0.0);
    for ci in 0..c {
        for khi in 0..geom.kh {
            for kwi in 0..geom.kw {
                let r = (ci * geom.kh + khi) * geom.kw + kwi;
                for ohi in 0..oh {
                    let ih = ohi * geom.stride + khi;
                    if ih < geom.pad || ih - geom.pad >= h {
                        continue;
                    }
                    let ih = ih - geom.pad;
                    for owi in 0..ow {
                        let iw = owi * geom.stride + kwi;
                        if iw < geom.pad || iw - geom.pad >= w {
                            continue;
                        }
                        let iw = iw - geom.pad;
                        out[(ci * h + ih) * w + iw] += cols[r * ncols + ohi * ow + owi];
                    }
                }
            }
        }
    }
    Ok(())
}

/// Lower a whole batch `[N, C, H, W]` into one im2col matrix
/// `[C*KH*KW, N*OH*OW]`, columns grouped sample-major.
///
/// Column `n*OH*OW + p` holds the receptive field of output pixel `p` of sample
/// `n`; slicing columns `[n*OH*OW, (n+1)*OH*OW)` recovers exactly
/// `im2col(sample_n)`. The whole batch therefore convolves in **one** matrix
/// product against the `[OC, C*KH*KW]` weight matrix instead of `N` per-sample
/// products — the batch-axis formulation the batched evaluation engine builds on.
///
/// # Errors
///
/// Returns a [`TensorError`] for non-rank-4 input or invalid window geometry.
pub fn im2col_batch(input: &Tensor, geom: Conv2dGeometry) -> Result<Tensor> {
    let mut out = Vec::new();
    let (rows, ncols) = im2col_batch_into(input, geom, &mut out)?;
    Tensor::from_vec(out, &[rows, ncols])
}

/// Lower a whole batch into one im2col matrix written into a caller-owned
/// buffer; returns the matrix dimensions `(C*KH*KW, N*OH*OW)`.
///
/// The allocation-free core of [`im2col_batch`]: each sample's receptive
/// fields are scattered straight into its column slot of the shared matrix —
/// no per-sample staging tensor, no row-by-row copy. The buffer is resized
/// and fully overwritten, so arena reuse is bit-identical to fresh allocation.
///
/// # Errors
///
/// Returns a [`TensorError`] for non-rank-4 input or invalid window geometry.
pub fn im2col_batch_into(
    input: &Tensor,
    geom: Conv2dGeometry,
    out: &mut Vec<f32>,
) -> Result<(usize, usize)> {
    let (n, c, h, w) = expect_rank4(input, "im2col_batch")?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let per_sample = oh * ow;
    let ncols = n * per_sample;
    out.clear();
    out.resize(rows * ncols, 0.0);
    let sample_len = c * h * w;
    for ni in 0..n {
        let sample = &input.data()[ni * sample_len..(ni + 1) * sample_len];
        im2col_scatter(sample, c, h, w, geom, oh, ow, out, ncols, ni * per_sample);
    }
    Ok((rows, ncols))
}

/// Lower a whole batch into per-sample im2col **blocks** written into a
/// caller-owned buffer; returns the per-sample matrix dimensions
/// `(C*KH*KW, OH*OW)`.
///
/// Unlike [`im2col_batch_into`], which concatenates samples along the column
/// axis of one shared matrix, this layout keeps each sample's `[C*KH*KW,
/// OH*OW]` matrix **contiguous**: sample `s` occupies
/// `out[s*rows*per .. (s+1)*rows*per]`, bit-identical to what
/// [`im2col_slice_into`] produces for that sample alone. That makes each block
/// directly consumable by the matmul kernels (which want a contiguous
/// right-hand side) without a per-sample staging allocation — the batched
/// gradient engine retains exactly this buffer for its backward pass. The
/// buffer is resized and fully overwritten, so arena reuse is bit-identical
/// to fresh allocation.
///
/// # Errors
///
/// Returns a [`TensorError`] for non-rank-4 input or invalid window geometry.
pub fn im2col_batch_blocks_into(
    input: &Tensor,
    geom: Conv2dGeometry,
    out: &mut Vec<f32>,
) -> Result<(usize, usize)> {
    let (n, c, h, w) = expect_rank4(input, "im2col_batch_blocks")?;
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let per = oh * ow;
    out.resize(n * rows * per, 0.0);
    let sample_len = c * h * w;
    for ni in 0..n {
        let sample = &input.data()[ni * sample_len..(ni + 1) * sample_len];
        let block = &mut out[ni * rows * per..(ni + 1) * rows * per];
        im2col_block_into(sample, c, h, w, geom, block)?;
    }
    Ok((rows, per))
}

/// Lower one raw `[C, H, W]` sample into a caller-provided im2col block of
/// exactly `rows * per` elements (one contiguous block of the layout built by
/// [`im2col_batch_blocks_into`]); returns `(rows, per)`.
///
/// The block is fully overwritten (zeros where padding lands), so stale
/// contents never leak through — bit-identical to [`im2col_slice_into`] on a
/// fresh buffer. Exists so a caller holding one flat multi-sample buffer can
/// interleave lowering with consuming each block while it is still cache-hot.
///
/// # Errors
///
/// Returns a [`TensorError`] when `sample` is not `c*h*w` long, the window
/// geometry is invalid, or `block` is not exactly `rows * per` long.
pub fn im2col_block_into(
    sample: &[f32],
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeometry,
    block: &mut [f32],
) -> Result<(usize, usize)> {
    if sample.len() != c * h * w {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![c, h, w],
            data_len: sample.len(),
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let per = oh * ow;
    if block.len() != rows * per {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![rows, per],
            data_len: block.len(),
        });
    }
    block.fill(0.0);
    im2col_scatter(sample, c, h, w, geom, oh, ow, block, per, 0);
    Ok((rows, per))
}

/// Forward one `[C, H, W]` sample through an im2col convolution, keeping the
/// column matrix.
///
/// `wmat` is the convolution weight reshaped to `[OC, C*KH*KW]`. Returns the
/// output matrix `[OC, OH*OW]` with the bias already added, together with the
/// lowered column matrix — the shared kernel behind
/// [`conv2d_forward_im2col`] and the batched gradient engine in `dnnip-nn`,
/// which retains the columns for its matmul-based backward pass.
///
/// # Errors
///
/// Returns a [`TensorError`] when the sample is not rank-3, the bias length
/// disagrees with `wmat`'s row count, or the window geometry is invalid.
pub fn conv2d_sample_forward_cols(
    sample: &Tensor,
    wmat: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeometry,
) -> Result<(Tensor, Tensor)> {
    let oc = wmat.shape()[0];
    if bias.ndim() != 1 || bias.shape()[0] != oc {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![oc],
            rhs: bias.shape().to_vec(),
            op: "conv2d_sample_forward_cols(bias)",
        });
    }
    let cols = im2col(sample, geom)?;
    let mut prod = crate::ops::matmul(wmat, &cols)?; // [OC, OH*OW]
    let per = cols.shape()[1];
    let bd = bias.data();
    let pd = prod.data_mut();
    for oci in 0..oc {
        let b = bd[oci];
        for v in &mut pd[oci * per..(oci + 1) * per] {
            *v += b;
        }
    }
    Ok((prod, cols))
}

/// Batched 2-D convolution forward pass: the whole `[N, C, H, W]` batch in a
/// single im2col + matrix multiplication.
///
/// Agrees with [`conv2d_forward_im2col`] applied to the same batch (same
/// accumulation order per output element) and with [`conv2d_forward`] up to
/// floating-point rounding.
///
/// # Errors
///
/// Same error conditions as [`conv2d_forward`].
pub fn conv2d_forward_im2col_batch(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_forward_im2col_batch")?;
    let (oc, wc, kh, kw) = expect_rank4(weight, "conv2d_forward_im2col_batch(weight)")?;
    check_conv_args(c, wc, kh, kw, bias, oc, geom)?;
    let (oh, ow) = geom.output_hw(h, w)?;

    let wmat = weight.reshape(&[oc, c * kh * kw])?;
    let cols = im2col_batch(input, geom)?; // [C*KH*KW, N*OH*OW]
    let prod = crate::ops::matmul(&wmat, &cols)?; // [OC, N*OH*OW]
    let pd = prod.data();
    let bd = bias.data();
    let per_sample = oh * ow;
    let mut out = vec![0.0f32; n * oc * per_sample];
    for ni in 0..n {
        for oci in 0..oc {
            let src = &pd[oci * n * per_sample + ni * per_sample..][..per_sample];
            let dst = &mut out[(ni * oc + oci) * per_sample..][..per_sample];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s + bd[oci];
            }
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// 2-D convolution forward pass via im2col + matrix multiplication.
///
/// Agrees with [`conv2d_forward`] up to floating-point rounding (the bias is
/// added after the product and padded taps are multiplied in as zeros; the
/// differential proptests pin an absolute 1e-3); used as a cross-check and as
/// the faster path for wide layers.
///
/// # Errors
///
/// Same error conditions as [`conv2d_forward`].
pub fn conv2d_forward_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Tensor> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_forward_im2col")?;
    let (oc, wc, kh, kw) = expect_rank4(weight, "conv2d_forward_im2col(weight)")?;
    check_conv_args(c, wc, kh, kw, bias, oc, geom)?;
    let (oh, ow) = geom.output_hw(h, w)?;

    // Weight matrix [OC, C*KH*KW].
    let wmat = weight.reshape(&[oc, c * kh * kw])?;
    let mut out = vec![0.0f32; n * oc * oh * ow];
    let mut cols = Vec::new();
    let bd = bias.data();
    let sample_len = c * h * w;
    let out_len = oc * oh * ow;

    for ni in 0..n {
        let sample = &input.data()[ni * sample_len..(ni + 1) * sample_len];
        let (rows, per) = im2col_slice_into(sample, c, h, w, geom, &mut cols)?;
        let dst = &mut out[ni * out_len..(ni + 1) * out_len];
        crate::kernels::gemm(oc, rows, per, wmat.data(), &cols, dst);
        for oci in 0..oc {
            let b = bd[oci];
            for v in &mut dst[oci * per..(oci + 1) * per] {
                *v += b;
            }
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGradients {
    /// Gradient of the loss with respect to the layer input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient of the loss with respect to the weights, `[OC, C, KH, KW]`.
    pub grad_weight: Tensor,
    /// Gradient of the loss with respect to the bias, `[OC]`.
    pub grad_bias: Tensor,
}

/// Full backward pass of the 2-D convolution.
///
/// Given the forward inputs and `grad_output = ∂L/∂output` (`[N, OC, OH, OW]`),
/// computes the gradients with respect to the input, the weights and the bias.
///
/// # Errors
///
/// Returns a [`TensorError`] when any operand shape is inconsistent with the
/// convolution geometry.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    geom: Conv2dGeometry,
) -> Result<Conv2dGradients> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_backward")?;
    let (oc, wc, kh, kw) = expect_rank4(weight, "conv2d_backward(weight)")?;
    if wc != c {
        return Err(TensorError::InvalidGeometry {
            reason: format!("weight expects {wc} input channels, input has {c}"),
        });
    }
    let (oh, ow) = geom.output_hw(h, w)?;
    shape::check_same(
        grad_output.shape(),
        &[n, oc, oh, ow],
        "conv2d_backward(grad_output)",
    )?;

    let mut gi = vec![0.0f32; n * c * h * w];
    let mut gw = vec![0.0f32; oc * c * kh * kw];
    let mut gb = vec![0.0f32; oc];
    let ind = input.data();
    let wd = weight.data();
    let god = grad_output.data();

    for ni in 0..n {
        for oci in 0..oc {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let go = god[((ni * oc + oci) * oh + ohi) * ow + owi];
                    if go == 0.0 {
                        continue;
                    }
                    gb[oci] += go;
                    for ci in 0..c {
                        for khi in 0..kh {
                            let ih = ohi * geom.stride + khi;
                            if ih < geom.pad || ih - geom.pad >= h {
                                continue;
                            }
                            let ih = ih - geom.pad;
                            for kwi in 0..kw {
                                let iw = owi * geom.stride + kwi;
                                if iw < geom.pad || iw - geom.pad >= w {
                                    continue;
                                }
                                let iw = iw - geom.pad;
                                let in_idx = ((ni * c + ci) * h + ih) * w + iw;
                                let w_idx = ((oci * c + ci) * kh + khi) * kw + kwi;
                                gw[w_idx] += ind[in_idx] * go;
                                gi[in_idx] += wd[w_idx] * go;
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(Conv2dGradients {
        grad_input: Tensor::from_vec(gi, &[n, c, h, w])?,
        grad_weight: Tensor::from_vec(gw, &[oc, c, kh, kw])?,
        grad_bias: Tensor::from_vec(gb, &[oc])?,
    })
}

/// Result of [`maxpool2d_forward`]: pooled activations plus the argmax bookkeeping
/// needed by the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPool2dOutput {
    /// Pooled activations, `[N, C, OH, OW]`.
    pub output: Tensor,
    /// For every output element, the flat index into the input tensor of the
    /// element that won the max (used to route gradients).
    pub argmax: Vec<usize>,
}

/// Max-pooling forward pass with a square window and no padding.
///
/// # Errors
///
/// Returns a [`TensorError`] for non-rank-4 input or invalid window geometry.
pub fn maxpool2d_forward(input: &Tensor, k: usize, stride: usize) -> Result<MaxPool2dOutput> {
    let (n, c, h, w) = expect_rank4(input, "maxpool2d_forward")?;
    let oh = conv_out_dim(h, k, stride, 0)?;
    let ow = conv_out_dim(w, k, stride, 0)?;
    let ind = input.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];

    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for khi in 0..k {
                        for kwi in 0..k {
                            let ih = ohi * stride + khi;
                            let iw = owi * stride + kwi;
                            let idx = ((ni * c + ci) * h + ih) * w + iw;
                            if ind[idx] > best {
                                best = ind[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o_idx = ((ni * c + ci) * oh + ohi) * ow + owi;
                    out[o_idx] = best;
                    argmax[o_idx] = best_idx;
                }
            }
        }
    }
    Ok(MaxPool2dOutput {
        output: Tensor::from_vec(out, &[n, c, oh, ow])?,
        argmax,
    })
}

/// Max-pooling backward pass: routes each output gradient to the input element
/// that won the corresponding max.
///
/// # Errors
///
/// Returns a [`TensorError`] when `grad_output` does not match the recorded
/// argmax bookkeeping.
pub fn maxpool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_output.shape().to_vec(),
            rhs: vec![argmax.len()],
            op: "maxpool2d_backward",
        });
    }
    let mut gi = vec![0.0f32; shape::num_elements(input_shape)];
    for (&g, &idx) in grad_output.data().iter().zip(argmax) {
        if idx >= gi.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![idx],
                shape: input_shape.to_vec(),
            });
        }
        gi[idx] += g;
    }
    Tensor::from_vec(gi, input_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_input() -> Tensor {
        // 1 sample, 1 channel, 4x4 with values 0..16
        Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32)
    }

    #[test]
    fn conv_identity_kernel_preserves_interior() {
        // 1x1 kernel with weight 1 and no bias reproduces the input exactly.
        let input = simple_input();
        let weight = Tensor::ones(&[1, 1, 1, 1]);
        let bias = Tensor::zeros(&[1]);
        let geom = Conv2dGeometry::square(1, 1, 0);
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn conv_known_values_3x3() {
        // 3x3 averaging-like kernel of all ones over a 4x4 ramp, valid padding.
        let input = simple_input();
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bias = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let geom = Conv2dGeometry::square(3, 1, 0);
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        // Top-left 3x3 window sums 0+1+2+4+5+6+8+9+10 = 45, plus bias 1.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 46.0);
        // Bottom-right window sums 5..7,9..11,13..15 = 90, plus bias 1.
        assert_eq!(out.get(&[0, 0, 1, 1]).unwrap(), 91.0);
    }

    #[test]
    fn conv_padding_keeps_spatial_size() {
        let input = simple_input();
        let weight = Tensor::ones(&[2, 1, 3, 3]);
        let bias = Tensor::zeros(&[2]);
        let geom = Conv2dGeometry::square(3, 1, 1);
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        assert_eq!(out.shape(), &[1, 2, 4, 4]);
        // Corner output only sees a 2x2 valid region: 0+1+4+5 = 10.
        assert_eq!(out.get(&[0, 0, 0, 0]).unwrap(), 10.0);
    }

    #[test]
    fn direct_and_im2col_agree() {
        let input = Tensor::from_fn(&[2, 3, 6, 5], |i| (i as f32 * 0.37).sin());
        let weight = Tensor::from_fn(&[4, 3, 3, 3], |i| (i as f32 * 0.11).cos());
        let bias = Tensor::from_fn(&[4], |i| i as f32 * 0.5);
        for (stride, pad) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
            let geom = Conv2dGeometry::square(3, stride, pad);
            let a = conv2d_forward(&input, &weight, &bias, geom).unwrap();
            let b = conv2d_forward_im2col(&input, &weight, &bias, geom).unwrap();
            assert!(
                a.approx_eq(&b, 1e-4),
                "mismatch at stride {stride} pad {pad}"
            );
        }
    }

    #[test]
    fn batched_im2col_forward_agrees_with_per_sample() {
        let input = Tensor::from_fn(&[3, 2, 5, 6], |i| (i as f32 * 0.23).sin());
        let weight = Tensor::from_fn(&[4, 2, 3, 3], |i| (i as f32 * 0.13).cos());
        let bias = Tensor::from_fn(&[4], |i| i as f32 * 0.25);
        for (stride, pad) in [(1, 0), (1, 1), (2, 1)] {
            let geom = Conv2dGeometry::square(3, stride, pad);
            let batched = conv2d_forward_im2col_batch(&input, &weight, &bias, geom).unwrap();
            let per_sample = conv2d_forward_im2col(&input, &weight, &bias, geom).unwrap();
            assert_eq!(
                batched, per_sample,
                "batched im2col differs at stride {stride} pad {pad}"
            );
            let direct = conv2d_forward(&input, &weight, &bias, geom).unwrap();
            assert!(batched.approx_eq(&direct, 1e-4));
        }
    }

    #[test]
    fn im2col_batch_columns_are_per_sample_im2col() {
        let input = Tensor::from_fn(&[2, 1, 4, 4], |i| i as f32);
        let geom = Conv2dGeometry::square(2, 1, 0);
        let cols = im2col_batch(&input, geom).unwrap();
        assert_eq!(cols.shape(), &[4, 2 * 9]);
        for ni in 0..2 {
            let sample =
                Tensor::from_vec(input.data()[ni * 16..(ni + 1) * 16].to_vec(), &[1, 4, 4])
                    .unwrap();
            let single = im2col(&sample, geom).unwrap();
            for r in 0..4 {
                assert_eq!(
                    &cols.data()[r * 18 + ni * 9..r * 18 + (ni + 1) * 9],
                    &single.data()[r * 9..(r + 1) * 9],
                    "sample {ni} row {r}"
                );
            }
        }
        assert!(im2col_batch(&Tensor::zeros(&[4, 4]), geom).is_err());
    }

    #[test]
    fn im2col_batch_blocks_are_per_sample_im2col() {
        // Padded geometry so zero-fill positions are exercised too.
        let input = Tensor::from_fn(&[3, 2, 4, 5], |i| ((i as f32) * 0.13).sin());
        let geom = Conv2dGeometry::square(3, 1, 1);
        let mut blocks = vec![f32::NAN; 7]; // dirty buffer: must be overwritten
        let (rows, per) = im2col_batch_blocks_into(&input, geom, &mut blocks).unwrap();
        assert_eq!((rows, per), (2 * 9, 4 * 5));
        assert_eq!(blocks.len(), 3 * rows * per);
        let sample_len = 2 * 4 * 5;
        for ni in 0..3 {
            let mut single = Vec::new();
            let sd = &input.data()[ni * sample_len..(ni + 1) * sample_len];
            im2col_slice_into(sd, 2, 4, 5, geom, &mut single).unwrap();
            assert_eq!(
                &blocks[ni * rows * per..(ni + 1) * rows * per],
                single.as_slice(),
                "sample {ni} block must be bit-identical to its solo lowering"
            );
        }
        assert!(im2col_batch_blocks_into(&Tensor::zeros(&[4, 4]), geom, &mut blocks).is_err());
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
        // of the adjoint, checked on deterministic pseudo-random data.
        let geom = Conv2dGeometry::square(3, 2, 1);
        let (c, h, w) = (2usize, 5usize, 6usize);
        let x = Tensor::from_fn(&[c, h, w], |i| (i as f32 * 0.71).sin());
        let cols = im2col(&x, geom).unwrap();
        let y = Tensor::from_fn(cols.shape(), |i| (i as f32 * 0.37).cos());
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, geom, c, h, w).unwrap();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
        assert!(col2im(&y, geom, c, h, 50).is_err());
        assert!(col2im(&Tensor::zeros(&[3]), geom, c, h, w).is_err());
    }

    #[test]
    fn conv_rejects_inconsistent_shapes() {
        let input = simple_input();
        let weight = Tensor::ones(&[1, 2, 3, 3]); // wrong channel count
        let bias = Tensor::zeros(&[1]);
        let geom = Conv2dGeometry::square(3, 1, 0);
        assert!(conv2d_forward(&input, &weight, &bias, geom).is_err());
        let weight = Tensor::ones(&[1, 1, 3, 3]);
        let bad_bias = Tensor::zeros(&[2]);
        assert!(conv2d_forward(&input, &weight, &bad_bias, geom).is_err());
        // Geometry disagreeing with the weight kernel.
        let geom2 = Conv2dGeometry::square(5, 1, 0);
        assert!(conv2d_forward(&input, &weight, &bias, geom2).is_err());
    }

    #[test]
    fn conv_backward_matches_finite_differences() {
        let input = Tensor::from_fn(&[1, 2, 5, 5], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let weight = Tensor::from_fn(&[3, 2, 3, 3], |i| ((i * 5 % 11) as f32 - 5.0) * 0.1);
        let bias = Tensor::from_fn(&[3], |i| i as f32 * 0.1);
        let geom = Conv2dGeometry::square(3, 1, 1);

        // Loss = sum of outputs, so grad_output = ones.
        let out = conv2d_forward(&input, &weight, &bias, geom).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let grads = conv2d_backward(&input, &weight, &grad_out, geom).unwrap();

        let eps = 1e-2f32;
        let loss =
            |inp: &Tensor, w: &Tensor, b: &Tensor| conv2d_forward(inp, w, b, geom).unwrap().sum();

        // Check a handful of weight gradients by central differences.
        for &idx in &[0usize, 7, 23, 41, 53] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&input, &wp, &bias) - loss(&input, &wm, &bias)) / (2.0 * eps);
            let ana = grads.grad_weight.data()[idx];
            assert!(
                (num - ana).abs() < 1e-1 * (1.0 + num.abs()),
                "weight grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
        // Check a handful of input gradients.
        for &idx in &[0usize, 11, 24, 37] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let num = (loss(&ip, &weight, &bias) - loss(&im, &weight, &bias)) / (2.0 * eps);
            let ana = grads.grad_input.data()[idx];
            assert!(
                (num - ana).abs() < 1e-1 * (1.0 + num.abs()),
                "input grad mismatch at {idx}: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient for a sum loss is the number of output pixels per channel.
        let expected_gb = (out.len() / 3) as f32;
        for &g in grads.grad_bias.data() {
            assert!((g - expected_gb).abs() < 1e-3);
        }
    }

    #[test]
    fn im2col_shape_and_content() {
        let sample = Tensor::from_fn(&[1, 3, 3], |i| i as f32);
        let geom = Conv2dGeometry::square(2, 1, 0);
        let cols = im2col(&sample, geom).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // First column is the top-left 2x2 window [0,1,3,4].
        assert_eq!(cols.get(&[0, 0]).unwrap(), 0.0);
        assert_eq!(cols.get(&[1, 0]).unwrap(), 1.0);
        assert_eq!(cols.get(&[2, 0]).unwrap(), 3.0);
        assert_eq!(cols.get(&[3, 0]).unwrap(), 4.0);
        assert!(im2col(&Tensor::zeros(&[3, 3]), geom).is_err());
    }

    #[test]
    fn maxpool_forward_and_backward_route_correctly() {
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let pooled = maxpool2d_forward(&input, 2, 2).unwrap();
        assert_eq!(pooled.output.shape(), &[1, 1, 2, 2]);
        assert_eq!(pooled.output.data(), &[4.0, 8.0, 12.0, 16.0]);

        let grad_out = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let gi = maxpool2d_backward(&grad_out, &pooled.argmax, input.shape()).unwrap();
        assert_eq!(gi.shape(), input.shape());
        // Gradient lands exactly on the max positions.
        assert_eq!(gi.get(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(gi.get(&[0, 0, 1, 3]).unwrap(), 2.0);
        assert_eq!(gi.get(&[0, 0, 3, 1]).unwrap(), 3.0);
        assert_eq!(gi.get(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(gi.sum(), 10.0);
    }

    #[test]
    fn maxpool_rejects_bad_geometry() {
        let input = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(maxpool2d_forward(&input, 4, 2).is_err());
        assert!(maxpool2d_forward(&Tensor::zeros(&[3, 3]), 2, 2).is_err());
        let grad = Tensor::zeros(&[1, 1, 1, 1]);
        assert!(maxpool2d_backward(&grad, &[0, 1], &[1, 1, 3, 3]).is_err());
        assert!(maxpool2d_backward(&grad, &[100], &[1, 1, 3, 3]).is_err());
    }
}
