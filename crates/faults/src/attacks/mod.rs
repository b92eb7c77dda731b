//! Attack strategies producing [`Perturbation`]s.
//!
//! Every attack implements [`Attack::generate`]: given the victim network, a set
//! of probe inputs (data the attacker wants to influence) and an RNG, it returns
//! a fresh perturbation. The detection harness calls this once per trial, so a
//! detection-rate experiment samples the attack's full distribution rather than a
//! single fixed fault.

mod bitflip;
mod gda;
mod random_noise;
mod sba;

pub use bitflip::{random_bit_flips, BitFlipFault};
pub use gda::GradientDescentAttack;
pub use random_noise::RandomPerturbation;
pub use sba::SingleBiasAttack;

use dnnip_accel::ip::FloatIp;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;
use rand::rngs::StdRng;

use crate::detection::{moves_any_prediction, predictions};
use crate::{Perturbation, Result};

/// A parameter-tampering strategy.
///
/// `Sync` is a supertrait so one attack instance can be shared read-only
/// across the worker threads of a parallel detection-rate experiment (each
/// trial receives its own RNG, so `generate` never needs shared mutability).
pub trait Attack: Sync {
    /// Short stable name used in reports (e.g. `"sba"`).
    fn name(&self) -> &'static str;

    /// Generate one perturbation against `network`.
    ///
    /// `probes` are inputs the attacker cares about (used to verify the attack
    /// actually changes behaviour); attacks that do not need them accept an empty
    /// slice.
    ///
    /// # Errors
    ///
    /// Returns an error when the attack's requirements (probe inputs, valid
    /// configuration) are not met or an underlying network operation fails.
    fn generate(
        &self,
        network: &Network,
        probes: &[Tensor],
        rng: &mut StdRng,
    ) -> Result<Perturbation>;
}

/// Check whether a perturbation changes the network's prediction on any probe.
///
/// # Errors
///
/// Returns an error if the perturbation or the probes are incompatible with the
/// network.
pub fn changes_any_prediction(
    network: &Network,
    perturbation: &Perturbation,
    probes: &[Tensor],
) -> Result<bool> {
    let clean = predictions(&FloatIp::new(network.clone()), probes)?;
    let tampered = FloatIp::new(perturbation.apply_to_network(network)?);
    moves_any_prediction(&tampered, probes, &clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamEdit;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;
    use rand::SeedableRng;

    #[test]
    fn changes_any_prediction_detects_output_bias_overwrite() {
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 1).unwrap();
        let probes: Vec<Tensor> = (0..4)
            .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 * 0.31).sin()))
            .collect();
        // Huge boost to one output-class bias flips predictions towards it.
        let last_bias = net.num_parameters() - 1;
        let p = Perturbation::new(
            vec![ParamEdit {
                index: last_bias,
                new_value: 100.0,
            }],
            "t",
        );
        assert!(changes_any_prediction(&net, &p, &probes).unwrap());
        // The empty perturbation never changes anything.
        assert!(!changes_any_prediction(&net, &Perturbation::default(), &probes).unwrap());
    }

    #[test]
    fn attack_trait_is_object_safe() {
        let attacks: Vec<Box<dyn Attack>> = vec![
            Box::new(SingleBiasAttack::default()),
            Box::new(GradientDescentAttack::default()),
            Box::new(RandomPerturbation::default()),
        ];
        let net = zoo::tiny_mlp(4, 6, 3, Activation::Relu, 2).unwrap();
        let probes = vec![Tensor::from_fn(&[4], |i| i as f32 * 0.1)];
        let mut rng = StdRng::seed_from_u64(0);
        for attack in &attacks {
            let p = attack.generate(&net, &probes, &mut rng).unwrap();
            assert!(
                !p.is_empty(),
                "{} produced an empty perturbation",
                attack.name()
            );
            assert!(!attack.name().is_empty());
        }
    }
}
