//! Layer probes for the traced runs: timed calls into the kernel, engine and
//! criterion public functions on a workload's own model and inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dnnip_core::bitset::Bitset;
use dnnip_core::coverage::CoverageConfig;
use dnnip_core::criterion::builtin_criteria;
use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::layers::Layer;
use dnnip_nn::Network;
use dnnip_tensor::conv::{im2col_batch, Conv2dGeometry};
use dnnip_tensor::{kernels, Tensor};

use crate::{us, Outcome};

/// Median wall time of `reps` calls of `f` (the first call warms caches and
/// is not counted).
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Every convolution of `network` as `(input [c, h, w], geometry, out channels)`.
fn conv_shapes(network: &Network) -> Vec<([usize; 3], Conv2dGeometry, usize)> {
    let mut shape = vec![1];
    shape.extend_from_slice(network.input_shape());
    let mut x = Tensor::zeros(&shape);
    let mut out = Vec::new();
    for layer in network.layers() {
        if let Layer::Conv2d(conv) = layer {
            let s = x.shape();
            out.push(([s[1], s[2], s[3]], conv.geometry(), conv.out_channels()));
        }
        x = layer.forward(&x).expect("zero input flows through").0;
    }
    out
}

/// `tensor.*`: im2col and the gemm the engine runs after it, at every
/// convolution's shapes for a batch of `chunk.len()` samples.
pub fn kernel_probe(out: &mut Outcome, network: &Network, chunk: &[Tensor]) {
    let convs = conv_shapes(network);
    if convs.is_empty() {
        return;
    }
    let n = chunk.len();
    let (mut flops, mut gemm_t, mut gemm_nt_t, mut im2col_t) = (0.0, 0.0, 0.0, 0.0);
    let mut fill = 0.37f32;
    for ([c, h, w], geom, oc) in convs {
        let batch = Tensor::from_fn(&[n, c, h, w], |i| ((i as f32) * fill).sin());
        fill += 0.11;
        im2col_t +=
            median_time(5, || im2col_batch(&batch, geom).expect("valid geometry")).as_secs_f64();
        let cols = im2col_batch(&batch, geom).expect("valid geometry");
        let (k, cols_n) = (cols.shape()[0], cols.shape()[1]);
        let weights: Vec<f32> = (0..oc * k).map(|i| (i as f32 * 0.013).cos()).collect();
        let mut prod = vec![0.0f32; oc * cols_n];
        gemm_t += median_time(5, || {
            kernels::gemm(oc, k, cols_n, &weights, cols.data(), &mut prod);
        })
        .as_secs_f64();
        // The backward's dW = dY · colsᵀ has the same flop count.
        let dy: Vec<f32> = (0..oc * cols_n).map(|i| (i as f32 * 0.007).sin()).collect();
        let mut dw = vec![0.0f32; oc * k];
        gemm_nt_t += median_time(5, || {
            kernels::gemm_nt(oc, cols_n, k, &dy, cols.data(), &mut dw);
        })
        .as_secs_f64();
        flops += 2.0 * (oc * k * cols_n) as f64;
    }
    out.set("tensor.gemm_gflops", flops / gemm_t / 1e9, "GFLOP/s");
    out.set("tensor.gemm_nt_gflops", flops / gemm_nt_t / 1e9, "GFLOP/s");
    out.set(
        "tensor.im2col_ns_per_sample",
        im2col_t * 1e9 / n as f64,
        "ns",
    );
}

/// `nn.*` (batched engine) and `criterion.*` on one chunk of inputs. The
/// criterion self time is its `covered_units` call minus the engine call it
/// makes on the same chunk (the parameter-gradient pass for the gradient
/// criterion, the activation capture for the forward-only ones).
pub fn engine_probe(
    out: &mut Outcome,
    network: Arc<Network>,
    coverage: &CoverageConfig,
    chunk: &[Tensor],
) {
    let engine = BatchGradientEngine::new(Arc::clone(&network));
    let n = chunk.len() as f64;
    let classes = network.num_classes();
    let weights = vec![1.0f32; classes];
    let grad_t = median_time(3, || {
        engine
            .parameter_gradients_batch(chunk, &weights)
            .expect("shape")
    });
    let fwd_t = median_time(3, || engine.forward_batch(chunk).expect("shape"));
    let pass = engine.forward_batch(chunk).expect("shape");
    let input_t = median_time(3, || {
        for s in 0..chunk.len() {
            let mut onehot = vec![0.0f32; classes];
            onehot[s % classes] = 1.0;
            std::hint::black_box(engine.input_gradient(&pass, s, &onehot).expect("shape"));
        }
    });
    out.set("nn.param_grad_us_per_sample", us(grad_t) / n, "us");
    out.set("nn.forward_us_per_sample", us(fwd_t) / n, "us");
    out.set("nn.input_grad_us_per_sample", us(input_t) / n, "us");
    // The engine calls the criteria make: a visitor over the summed-output
    // parameter gradients (no per-sample copies), or the activation capture.
    let projection = [weights.clone()];
    let visit_t = median_time(3, || {
        engine
            .for_each_parameter_gradient(chunk, &projection, |_, _, g| {
                std::hint::black_box(g);
            })
            .expect("shape")
    });
    let capture_t = median_time(3, || engine.activation_outputs(chunk).expect("shape"));
    for criterion in builtin_criteria(coverage) {
        let id = criterion.id();
        let crit_t = median_time(3, || {
            criterion.covered_units(&engine, chunk).expect("shape")
        });
        let engine_t = if criterion.forward_only() {
            capture_t
        } else {
            visit_t
        };
        let sets = criterion.covered_units(&engine, chunk).expect("shape");
        let units = criterion.num_units(&network).max(1);
        out.set(
            format!("criterion.{id}.self_us_per_sample"),
            us(crit_t.saturating_sub(engine_t)) / n,
            "us",
        );
        out.set(
            format!("criterion.{id}.density"),
            density(&sets, units),
            "fraction",
        );
    }
}

fn density(sets: &[Bitset], units: usize) -> f64 {
    let ones: usize = sets.iter().map(Bitset::count_ones).sum();
    ones as f64 / (units * sets.len().max(1)) as f64
}
