//! Model zoo: the paper's Table-I architectures and scaled-down variants.
//!
//! The DATE 2019 paper evaluates two convolutional networks (Table I):
//!
//! * **MNIST model** — four 3×3 convolutions (32, 32, 64, 64 channels) with
//!   `Tanh` activations and 2×2 max pooling after the second and fourth, a
//!   128-unit fully-connected layer and a 10-way classifier.
//! * **CIFAR-10 model** — the same topology with 64/64/128/128 channels, `ReLU`
//!   activations and a 512-unit fully-connected layer.
//!
//! [`mnist_model`] and [`cifar_model`] build those exact architectures.
//! Because this reproduction runs on CPU only, the experiment profiles default to
//! [`mnist_model_scaled`] / [`cifar_model_scaled`]: identical layer structure and
//! activation functions, but smaller images and channel counts so training and
//! coverage sweeps finish in seconds. The coverage phenomena the paper reports
//! depend on layer types and activations, not absolute parameter counts, so the
//! scaled variants keep both and shrink only the channel widths and image size.

use crate::layers::{Activation, ActivationLayer, Conv2d, Dense, Flatten, Layer, MaxPool2d};
use crate::{Network, Result};

/// Seed-splitting helper so each layer gets a distinct, reproducible stream.
fn layer_seed(base: u64, index: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(index)
}

/// Build a Table-I style convolutional classifier.
///
/// `channels` are the four convolution widths, `fc` the hidden fully-connected
/// width. Convolutions use 3×3 kernels with "valid" padding exactly as a Keras
/// default would, pooling is 2×2 stride 2 after the second and fourth
/// convolution.
///
/// # Errors
///
/// Returns an error if the resulting shape chain is inconsistent (e.g. the input
/// image is too small for four valid 3×3 convolutions and two poolings).
pub fn conv_classifier(
    input: [usize; 3],
    channels: [usize; 4],
    fc: usize,
    classes: usize,
    activation: Activation,
    pad: usize,
    seed: u64,
) -> Result<Network> {
    let [c, h, w] = input;
    let act = || -> Layer { ActivationLayer::new(activation).into() };
    // Spatial sizes after each stage (needed to size the first dense layer).
    let after = |dim: usize, k: usize, pad: usize| dim + 2 * pad - k + 1;
    let h1 = after(h, 3, pad);
    let w1 = after(w, 3, pad);
    let h2 = after(h1, 3, pad) / 2;
    let w2 = after(w1, 3, pad) / 2;
    let h3 = after(h2, 3, pad);
    let w3 = after(w2, 3, pad);
    let h4 = after(h3, 3, pad) / 2;
    let w4 = after(w3, 3, pad) / 2;
    let flat = channels[3] * h4 * w4;

    let layers: Vec<Layer> = vec![
        Conv2d::with_seed(c, channels[0], 3, 1, pad, layer_seed(seed, 1)).into(),
        act(),
        Conv2d::with_seed(channels[0], channels[1], 3, 1, pad, layer_seed(seed, 2)).into(),
        act(),
        MaxPool2d::new(2, 2).into(),
        Conv2d::with_seed(channels[1], channels[2], 3, 1, pad, layer_seed(seed, 3)).into(),
        act(),
        Conv2d::with_seed(channels[2], channels[3], 3, 1, pad, layer_seed(seed, 4)).into(),
        act(),
        MaxPool2d::new(2, 2).into(),
        Flatten::new().into(),
        Dense::with_seed(flat, fc, layer_seed(seed, 5)).into(),
        act(),
        Dense::with_seed(fc, classes, layer_seed(seed, 6)).into(),
    ];
    Network::new(layers, &input)
}

/// The paper's MNIST model (Table I): 28×28×1 input, Tanh activations,
/// 32/32/64/64 convolution channels, 128-unit hidden layer, 10 classes.
///
/// # Errors
///
/// Never fails for the fixed Table-I geometry; the `Result` is kept for a uniform
/// constructor signature.
pub fn mnist_model(seed: u64) -> Result<Network> {
    conv_classifier(
        [1, 28, 28],
        [32, 32, 64, 64],
        128,
        10,
        Activation::Tanh,
        0,
        seed,
    )
}

/// The paper's CIFAR-10 model (Table I): 32×32×3 input, ReLU activations,
/// 64/64/128/128 convolution channels, 512-unit hidden layer, 10 classes.
///
/// # Errors
///
/// Never fails for the fixed Table-I geometry; the `Result` is kept for a uniform
/// constructor signature.
pub fn cifar_model(seed: u64) -> Result<Network> {
    conv_classifier(
        [3, 32, 32],
        [64, 64, 128, 128],
        512,
        10,
        Activation::Relu,
        0,
        seed,
    )
}

/// Scaled-down MNIST model: same topology and Tanh activations as
/// [`mnist_model`], but 16×16 inputs, 8/8/16/16 channels and a 32-unit hidden
/// layer (~13 k parameters). Used by the default experiment profile and tests.
///
/// # Errors
///
/// Never fails for the fixed geometry.
pub fn mnist_model_scaled(seed: u64) -> Result<Network> {
    conv_classifier(
        [1, 16, 16],
        [8, 8, 16, 16],
        32,
        10,
        Activation::Tanh,
        1,
        seed,
    )
}

/// Scaled-down CIFAR-10 model: same topology and ReLU activations as
/// [`cifar_model`], but 16×16 inputs, 16/16/32/32 channels and a 64-unit hidden
/// layer (~50 k parameters). Used by the default experiment profile and tests.
///
/// # Errors
///
/// Never fails for the fixed geometry.
pub fn cifar_model_scaled(seed: u64) -> Result<Network> {
    conv_classifier(
        [3, 16, 16],
        [16, 16, 32, 32],
        64,
        10,
        Activation::Relu,
        1,
        seed,
    )
}

/// A small two-layer perceptron for unit tests and examples.
///
/// # Errors
///
/// Returns an error only if `hidden` or `classes` is zero.
pub fn tiny_mlp(
    inputs: usize,
    hidden: usize,
    classes: usize,
    activation: Activation,
    seed: u64,
) -> Result<Network> {
    Network::new(
        vec![
            Dense::with_seed(inputs, hidden, layer_seed(seed, 1)).into(),
            ActivationLayer::new(activation).into(),
            Dense::with_seed(hidden, classes, layer_seed(seed, 2)).into(),
        ],
        &[inputs],
    )
}

/// A very small convolutional network on 8×8 single-channel inputs for fast
/// tests: one 3×3 convolution, pooling, and a linear classifier.
///
/// # Errors
///
/// Never fails for the fixed geometry.
pub fn tiny_cnn(
    channels: usize,
    classes: usize,
    activation: Activation,
    seed: u64,
) -> Result<Network> {
    Network::new(
        vec![
            Conv2d::with_seed(1, channels, 3, 1, 1, layer_seed(seed, 1)).into(),
            ActivationLayer::new(activation).into(),
            MaxPool2d::new(2, 2).into(),
            Flatten::new().into(),
            Dense::with_seed(channels * 4 * 4, classes, layer_seed(seed, 2)).into(),
        ],
        &[1, 8, 8],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_tensor::Tensor;

    #[test]
    fn mnist_model_matches_table_one() {
        let net = mnist_model(0).unwrap();
        assert_eq!(net.input_shape(), &[1, 28, 28]);
        assert_eq!(net.num_classes(), 10);
        // Parameter count derived from Table I with valid padding:
        // conv 320 + 9248 + 18496 + 36928, fc 1024*128+128, fc 128*10+10.
        let expected = 320 + 9248 + 18496 + 36928 + (1024 * 128 + 128) + (128 * 10 + 10);
        assert_eq!(net.num_parameters(), expected);
        // Tanh everywhere.
        assert!(net.layers().iter().any(|l| l.name().contains("Tanh")));
        assert!(!net.layers().iter().any(|l| l.name().contains("Relu")));
    }

    #[test]
    fn cifar_model_matches_table_one() {
        let net = cifar_model(0).unwrap();
        assert_eq!(net.input_shape(), &[3, 32, 32]);
        assert_eq!(net.num_classes(), 10);
        let conv = 64 * 3 * 9 + 64 + 64 * 64 * 9 + 64 + 128 * 64 * 9 + 128 + 128 * 128 * 9 + 128;
        let flat = 128 * 5 * 5;
        let expected = conv + (flat * 512 + 512) + (512 * 10 + 10);
        assert_eq!(net.num_parameters(), expected);
        assert!(net.layers().iter().any(|l| l.name().contains("Relu")));
    }

    #[test]
    fn scaled_models_run_forward() {
        let mnist = mnist_model_scaled(1).unwrap();
        let x = Tensor::from_fn(&[1, 16, 16], |i| (i as f32 * 0.01).sin());
        let out = mnist.forward_sample(&x).unwrap();
        assert_eq!(out.shape(), &[10]);
        assert!(mnist.num_parameters() < 20_000);

        let cifar = cifar_model_scaled(1).unwrap();
        let x = Tensor::from_fn(&[3, 16, 16], |i| (i as f32 * 0.01).cos());
        let out = cifar.forward_sample(&x).unwrap();
        assert_eq!(out.shape(), &[10]);
        assert!(cifar.num_parameters() < 80_000);
    }

    #[test]
    fn tiny_models_are_well_formed() {
        let mlp = tiny_mlp(6, 12, 3, Activation::Sigmoid, 9).unwrap();
        assert_eq!(mlp.num_parameters(), 6 * 12 + 12 + 12 * 3 + 3);
        let cnn = tiny_cnn(4, 5, Activation::Relu, 9).unwrap();
        assert_eq!(cnn.num_classes(), 5);
        let x = Tensor::from_fn(&[1, 8, 8], |i| i as f32 * 0.01);
        assert_eq!(cnn.forward_sample(&x).unwrap().len(), 5);
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let a = mnist_model_scaled(1).unwrap();
        let b = mnist_model_scaled(2).unwrap();
        assert_ne!(a.parameters_flat(), b.parameters_flat());
        let c = mnist_model_scaled(1).unwrap();
        assert_eq!(a.parameters_flat(), c.parameters_flat());
    }
}
