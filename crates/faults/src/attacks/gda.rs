//! Gradient descent attack (GDA) of Liu et al., ICCAD 2017.
//!
//! Instead of one large change, the attacker spreads **small perturbations over
//! many parameters**, chosen and sized by gradient descent so that a probe input
//! is pushed towards a wrong class while each individual parameter moves only a
//! little (stealthiness).

use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::loss::cross_entropy;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

use super::Attack;
use crate::{FaultError, ParamEdit, Perturbation, Result};

/// Configuration of the gradient descent attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientDescentAttack {
    /// Number of gradient-descent steps.
    pub steps: usize,
    /// Step size applied to the selected parameters.
    pub step_size: f32,
    /// Number of parameters the attacker is willing to modify (the top-k by
    /// gradient magnitude at the first step).
    pub num_params: usize,
    /// Maximum absolute change allowed on any single parameter (stealthiness
    /// budget).
    pub max_change: f32,
}

impl Default for GradientDescentAttack {
    fn default() -> Self {
        Self {
            steps: 8,
            step_size: 0.5,
            num_params: 32,
            max_change: 2.0,
        }
    }
}

/// An engine over the current parameters of `net` and its `[1, classes]`
/// logits on `probe`: each GDA step runs one batched forward here and one
/// inside the engine's parameter-gradient pass.
fn observe(net: &Network, probe: &[Tensor]) -> Result<(BatchGradientEngine, Tensor)> {
    let engine = BatchGradientEngine::new(net.clone());
    let output = engine.forward_batch(probe)?.output().clone();
    Ok((engine, output))
}

impl Attack for GradientDescentAttack {
    fn name(&self) -> &'static str {
        "gda"
    }

    fn generate(
        &self,
        network: &Network,
        probes: &[Tensor],
        rng: &mut StdRng,
    ) -> Result<Perturbation> {
        if probes.is_empty() {
            return Err(FaultError::NoProbes { attack: "gda" });
        }
        if self.steps == 0 || self.num_params == 0 {
            return Err(FaultError::InvalidConfig {
                reason: "GDA needs at least one step and one parameter".to_string(),
            });
        }
        let probe = std::slice::from_ref(&probes[rng.gen_range(0..probes.len())]);
        let classes = network.num_classes();
        let (mut engine, mut output) = observe(network, probe)?;
        let current = output.argmax()?;
        // Push the probe towards a random *wrong* class.
        let offset = rng.gen_range(1..classes.max(2));
        let target = (current + offset) % classes;

        let original = network.parameters_flat();
        let mut tampered = network.clone();
        let mut params = original.clone();
        let mut victim_indices: Option<Vec<usize>> = None;

        for step in 0..self.steps {
            if step > 0 {
                (engine, output) = observe(&tampered, probe)?;
                if output.argmax()? == target {
                    break;
                }
            }
            let loss = cross_entropy(&output, &[target])?;
            let grads = engine
                .parameter_gradients_batch(probe, loss.grad_logits.data())?
                .pop()
                .expect("one probe yields one gradient");

            // Select the victim parameters once, on the first step.
            let indices = victim_indices.get_or_insert_with(|| {
                let mut order: Vec<usize> = (0..grads.len()).collect();
                order.sort_by(|&a, &b| {
                    grads[b]
                        .abs()
                        .partial_cmp(&grads[a].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                order.truncate(self.num_params);
                order
            });

            for &i in indices.iter() {
                let proposed = params[i] - self.step_size * grads[i];
                // Clamp to the stealthiness budget around the original value.
                params[i] =
                    proposed.clamp(original[i] - self.max_change, original[i] + self.max_change);
            }
            tampered.set_parameters_flat(&params)?;
        }

        let edits: Vec<ParamEdit> = victim_indices
            .unwrap_or_default()
            .into_iter()
            .filter(|&i| (params[i] - original[i]).abs() > 0.0)
            .map(|i| ParamEdit {
                index: i,
                new_value: params[i],
            })
            .collect();
        if edits.is_empty() {
            // Degenerate case (all gradients exactly zero): fall back to a minimal
            // single-parameter nudge so the perturbation is never empty.
            return Ok(Perturbation::new(
                vec![ParamEdit {
                    index: 0,
                    new_value: original[0] + self.step_size,
                }],
                "gda",
            ));
        }
        Ok(Perturbation::new(edits, "gda"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::changes_any_prediction;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;
    use rand::SeedableRng;

    fn probes(n: usize, dim: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[dim], |j| ((i * dim + j) as f32 * 0.23).cos()))
            .collect()
    }

    /// The attack's step loop written against the per-sample reference
    /// executor (cached forward, backward, per-sample prediction).
    fn reference_generate(
        attack: &GradientDescentAttack,
        network: &Network,
        probes: &[Tensor],
        rng: &mut StdRng,
    ) -> Vec<ParamEdit> {
        let probe = &probes[rng.gen_range(0..probes.len())];
        let classes = network.num_classes();
        let current = network.predict_sample(probe).unwrap();
        let target = (current + rng.gen_range(1..classes.max(2))) % classes;
        let original = network.parameters_flat();
        let mut tampered = network.clone();
        let mut victims: Option<Vec<usize>> = None;
        for _ in 0..attack.steps {
            let pass = tampered
                .forward_cached(&tampered.batch_one(probe).unwrap())
                .unwrap();
            let loss = cross_entropy(&pass.output, &[target]).unwrap();
            let grads = tampered
                .backward(&pass, &loss.grad_logits)
                .unwrap()
                .param_grads;
            let indices = victims.get_or_insert_with(|| {
                let mut order: Vec<usize> = (0..grads.len()).collect();
                order.sort_by(|&a, &b| grads[b].abs().partial_cmp(&grads[a].abs()).unwrap());
                order.truncate(attack.num_params);
                order
            });
            let mut params = tampered.parameters_flat();
            for &i in indices.iter() {
                params[i] = (params[i] - attack.step_size * grads[i]).clamp(
                    original[i] - attack.max_change,
                    original[i] + attack.max_change,
                );
            }
            tampered.set_parameters_flat(&params).unwrap();
            if tampered.predict_sample(probe).unwrap() == target {
                break;
            }
        }
        let last = tampered.parameters_flat();
        victims
            .unwrap_or_default()
            .into_iter()
            .filter(|&i| last[i] != original[i])
            .map(|i| ParamEdit {
                index: i,
                new_value: last[i],
            })
            .collect()
    }

    #[test]
    fn engine_steps_match_the_reference_loop_on_dense_models() {
        // Dense layers run the same kernels on both executors, so the engine
        // trajectory must reproduce the reference one bit for bit.
        let attack = GradientDescentAttack {
            steps: 12,
            step_size: 0.8,
            num_params: 20,
            max_change: 1.5,
        };
        for (activation, seed) in [(Activation::Relu, 4), (Activation::Tanh, 8)] {
            let net = zoo::tiny_mlp(6, 16, 4, activation, seed).unwrap();
            let pr = probes(5, 6);
            for rng_seed in 0..6 {
                let engine = attack
                    .generate(&net, &pr, &mut StdRng::seed_from_u64(rng_seed))
                    .unwrap();
                let reference =
                    reference_generate(&attack, &net, &pr, &mut StdRng::seed_from_u64(rng_seed));
                assert_eq!(engine.edits, reference, "{activation:?} seed {rng_seed}");
            }
        }
    }

    #[test]
    fn requires_probes() {
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 1).unwrap();
        let attack = GradientDescentAttack::default();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            attack.generate(&net, &[], &mut rng),
            Err(FaultError::NoProbes { .. })
        ));
    }

    #[test]
    fn perturbation_respects_budget() {
        let net = zoo::tiny_mlp(6, 16, 4, Activation::Tanh, 5).unwrap();
        let attack = GradientDescentAttack {
            num_params: 10,
            max_change: 0.5,
            ..GradientDescentAttack::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let p = attack.generate(&net, &probes(4, 6), &mut rng).unwrap();
        assert!(p.len() <= 10, "touched {} parameters", p.len());
        assert!(p.max_abs_change(&net).unwrap() <= 0.5 + 1e-5);
        assert_eq!(p.source, "gda");
    }

    #[test]
    fn attack_changes_probe_prediction_on_most_seeds() {
        let net = zoo::tiny_mlp(6, 16, 4, Activation::Relu, 9).unwrap();
        let attack = GradientDescentAttack {
            steps: 20,
            step_size: 1.0,
            num_params: 64,
            max_change: 5.0,
        };
        let pr = probes(6, 6);
        let mut effective = 0;
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = attack.generate(&net, &pr, &mut rng).unwrap();
            if changes_any_prediction(&net, &p, &pr).unwrap() {
                effective += 1;
            }
        }
        assert!(
            effective >= 7,
            "only {effective}/10 GDA attacks were effective"
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let net = zoo::tiny_mlp(4, 4, 2, Activation::Relu, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let pr = probes(1, 4);
        let a = GradientDescentAttack {
            steps: 0,
            ..GradientDescentAttack::default()
        };
        assert!(a.generate(&net, &pr, &mut rng).is_err());
        let b = GradientDescentAttack {
            num_params: 0,
            ..GradientDescentAttack::default()
        };
        assert!(b.generate(&net, &pr, &mut rng).is_err());
    }
}
