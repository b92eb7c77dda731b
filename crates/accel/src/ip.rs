//! The black-box DNN IP interface and its two implementations.
//!
//! [`DnnIp`] is the only surface the paper's IP user ever sees: feed an input,
//! read the output logits. No parameter access, no intermediate activations.
//!
//! * [`FloatIp`] runs the float network on a [`BatchGradientEngine`] — the
//!   vendor's golden reference.
//! * [`AcceleratorIp`] holds the network *architecture* plus a quantized
//!   [`WeightMemory`]; every inference reconstitutes the parameters from that
//!   memory, so whatever an attacker does to the memory is what the user observes.
//!
//! Both run the engine's batched forward pass. On dense models its logits are
//! bit-identical to the per-sample reference `Network` executor; on conv
//! models they agree to about 1e-6 of the largest logit, because the engine
//! adds the bias after the im2col product and multiplies padded taps in
//! (`tests/engine_ip_equivalence.rs` pins a 1e-5 bound and equal argmax).

use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::Network;
use dnnip_tensor::{ops, Tensor};

use crate::memory::WeightMemory;
use crate::quant::BitWidth;
use crate::{AccelError, Result};

/// A deployed DNN IP usable only as a black box.
///
/// Implementations must be deterministic: the same input always produces the
/// same output for an unmodified IP, which is what makes golden-output
/// comparison a sound validation mechanism.
pub trait DnnIp {
    /// Run inference on several samples (each of shape
    /// [`DnnIp::input_shape`]) and return one logits tensor (length =
    /// [`DnnIp::num_classes`]) per input.
    ///
    /// A sample's output never depends on which other samples share the
    /// batch, so batching is purely a throughput choice.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the IP's input.
    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>>;

    /// Run inference on a single sample: [`DnnIp::infer_batch`] on a batch of
    /// one.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the IP's input.
    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let mut outputs = self.infer_batch(std::slice::from_ref(input))?;
        Ok(outputs.pop().expect("one input yields one output"))
    }

    /// Shape of a single input sample.
    fn input_shape(&self) -> &[usize];

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Predicted class (argmax of [`DnnIp::infer`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the IP's input.
    fn predict(&self, input: &Tensor) -> Result<usize> {
        Ok(self.infer(input)?.argmax()?)
    }
}

/// Logits of `inputs` from one batched forward pass of `engine`, one rank-1
/// tensor per input.
fn engine_logits(engine: &BatchGradientEngine, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
    if inputs.is_empty() {
        return Ok(Vec::new());
    }
    Ok(ops::unstack(engine.forward_batch(inputs)?.output())?)
}

/// Golden reference IP: the float network on a batched engine built once at
/// construction.
#[derive(Debug, Clone)]
pub struct FloatIp {
    engine: BatchGradientEngine,
}

impl FloatIp {
    /// Wrap a float network as a black-box IP.
    pub fn new(network: Network) -> Self {
        Self {
            engine: BatchGradientEngine::new(network),
        }
    }

    /// Borrow the wrapped network (vendor-side only; the IP user never gets this).
    pub fn network(&self) -> &Network {
        self.engine.network()
    }
}

impl DnnIp for FloatIp {
    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        engine_logits(&self.engine, inputs)
    }

    fn input_shape(&self) -> &[usize] {
        self.network().input_shape()
    }

    fn num_classes(&self) -> usize {
        self.network().num_classes()
    }
}

/// Simulated hardware accelerator IP: architecture + quantized off-chip weight
/// memory.
///
/// The architecture (layer structure) is fixed at construction; the parameters
/// used for every inference are read from the [`WeightMemory`], so memory
/// tampering directly changes the IP's behaviour — exactly the attack surface the
/// paper's functional validation is designed to expose.
#[derive(Debug, Clone)]
pub struct AcceleratorIp {
    architecture: Network,
    memory: WeightMemory,
}

impl AcceleratorIp {
    /// Build an accelerator IP from a trained network, quantizing its parameters
    /// into a fresh weight memory of the given width.
    pub fn from_network(network: &Network, width: BitWidth) -> Self {
        let memory = WeightMemory::from_network(network, width);
        Self {
            architecture: network.clone(),
            memory,
        }
    }

    /// Build an accelerator IP from an architecture and an existing memory image.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::MemoryLayoutMismatch`] when the memory does not hold
    /// exactly the architecture's parameter count.
    pub fn with_memory(architecture: Network, memory: WeightMemory) -> Result<Self> {
        if memory.num_parameters() != architecture.num_parameters() {
            return Err(AccelError::MemoryLayoutMismatch {
                expected_params: architecture.num_parameters(),
                memory_params: memory.num_parameters(),
            });
        }
        Ok(Self {
            architecture,
            memory,
        })
    }

    /// Immutable view of the weight memory.
    pub fn memory(&self) -> &WeightMemory {
        &self.memory
    }

    /// Mutable access to the weight memory — this is the attacker's surface.
    pub fn memory_mut(&mut self) -> &mut WeightMemory {
        &mut self.memory
    }

    /// Materialize the network the accelerator is effectively running right now
    /// (architecture + dequantized current memory contents).
    ///
    /// # Errors
    ///
    /// Returns an error if the memory image length no longer matches the
    /// architecture (cannot happen through the public API).
    pub fn effective_network(&self) -> Result<Network> {
        let mut net = self.architecture.clone();
        net.set_parameters_flat(&self.memory.to_flat_parameters())?;
        Ok(net)
    }
}

impl DnnIp for AcceleratorIp {
    /// Dequantizes the current memory contents once per call, so a write
    /// through [`AcceleratorIp::memory_mut`] is visible to the next inference.
    fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let engine = BatchGradientEngine::new(self.effective_network()?);
        engine_logits(&engine, inputs)
    }

    fn input_shape(&self) -> &[usize] {
        self.architecture.input_shape()
    }

    fn num_classes(&self) -> usize {
        self.architecture.num_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn sample(shape: &[usize], seed: usize) -> Tensor {
        Tensor::from_fn(shape, |i| ((i + seed) as f32 * 0.37).sin() * 0.5 + 0.5)
    }

    #[test]
    fn float_ip_matches_network() {
        let net = zoo::tiny_cnn(4, 3, Activation::Relu, 9).unwrap();
        let ip = FloatIp::new(net.clone());
        let x = sample(&[1, 8, 8], 0);
        assert!(ip
            .infer(&x)
            .unwrap()
            .approx_eq(&net.forward_sample(&x).unwrap(), 1e-6));
        assert_eq!(ip.input_shape(), &[1, 8, 8]);
        assert_eq!(ip.num_classes(), 3);
        assert_eq!(ip.predict(&x).unwrap(), net.predict_sample(&x).unwrap());
        assert!(ip.infer(&Tensor::zeros(&[8, 8])).is_err());
    }

    #[test]
    fn accelerator_ip_closely_tracks_float_ip_at_16_bits() {
        let net = zoo::tiny_mlp(8, 16, 4, Activation::Tanh, 4).unwrap();
        let float_ip = FloatIp::new(net.clone());
        let accel = AcceleratorIp::from_network(&net, BitWidth::Int16);
        for seed in 0..10 {
            let x = sample(&[8], seed);
            let a = float_ip.infer(&x).unwrap();
            let b = accel.infer(&x).unwrap();
            assert!(
                a.approx_eq(&b, 1e-2),
                "quantized output diverges: {a} vs {b}"
            );
            assert_eq!(float_ip.predict(&x).unwrap(), accel.predict(&x).unwrap());
        }
    }

    #[test]
    fn memory_tampering_changes_ip_behaviour() {
        let net = zoo::tiny_mlp(6, 12, 3, Activation::Relu, 7).unwrap();
        let mut accel = AcceleratorIp::from_network(&net, BitWidth::Int16);
        let golden = AcceleratorIp::from_network(&net, BitWidth::Int16);
        let x = sample(&[6], 1);
        let before = accel.infer(&x).unwrap();
        // Corrupt the last bias (always influences the output).
        let last = accel.memory().num_parameters() - 1;
        accel.memory_mut().write_parameter(last, 10.0).unwrap();
        let after = accel.infer(&x).unwrap();
        assert!(!before.approx_eq(&after, 1e-3));
        assert!(golden.infer(&x).unwrap().approx_eq(&before, 1e-6));
    }

    #[test]
    fn with_memory_validates_layout() {
        let net_a = zoo::tiny_mlp(6, 12, 3, Activation::Relu, 7).unwrap();
        let net_b = zoo::tiny_mlp(4, 4, 2, Activation::Relu, 7).unwrap();
        let mem_b = WeightMemory::from_network(&net_b, BitWidth::Int8);
        assert!(matches!(
            AcceleratorIp::with_memory(net_a.clone(), mem_b),
            Err(AccelError::MemoryLayoutMismatch { .. })
        ));
        let mem_a = WeightMemory::from_network(&net_a, BitWidth::Int8);
        assert!(AcceleratorIp::with_memory(net_a, mem_a).is_ok());
    }

    #[test]
    fn effective_network_reflects_memory_contents() {
        let net = zoo::tiny_mlp(5, 8, 2, Activation::Sigmoid, 2).unwrap();
        let mut accel = AcceleratorIp::from_network(&net, BitWidth::Int16);
        // Write a value inside the segment's representable range: it round-trips.
        accel.memory_mut().write_parameter(0, 0.2).unwrap();
        let eff = accel.effective_network().unwrap();
        assert!((eff.parameter(0).unwrap() - 0.2).abs() < 0.01);
        // Out-of-range writes are clamped to the segment's maximum representable
        // magnitude (the accelerator's number format constrains the attacker).
        accel.memory_mut().write_parameter(0, 1e6).unwrap();
        let eff = accel.effective_network().unwrap();
        let written = eff.parameter(0).unwrap();
        assert!(written > 0.2 && written < 10.0, "clamped value {written}");
    }

    #[test]
    fn dnn_ip_is_object_safe() {
        let net = zoo::tiny_mlp(4, 4, 2, Activation::Relu, 0).unwrap();
        let ips: Vec<Box<dyn DnnIp>> = vec![
            Box::new(FloatIp::new(net.clone())),
            Box::new(AcceleratorIp::from_network(&net, BitWidth::Int8)),
        ];
        let x = sample(&[4], 3);
        for ip in &ips {
            assert_eq!(ip.infer(&x).unwrap().len(), 2);
        }
    }
}
