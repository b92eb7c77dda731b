//! Single bias attack (SBA) of Liu et al., ICCAD 2017.
//!
//! The attacker modifies **one bias** by a large amount. Because a bias feeds
//! every downstream computation additively, a big enough change reliably causes
//! misclassifications while touching the smallest possible number of parameters.

use dnnip_accel::ip::FloatIp;
use dnnip_nn::Network;
use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use super::Attack;
use crate::detection::{moves_any_prediction, predictions};
use crate::{FaultError, ParamEdit, Perturbation, Result};

/// Configuration of the single bias attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleBiasAttack {
    /// Magnitude added to (or subtracted from) the victim bias.
    pub magnitude: f32,
    /// How many candidate biases to try when looking for an *effective* attack
    /// (one that flips at least one probe prediction).
    pub max_tries: usize,
    /// If `true`, the attack keeps trying candidates until it finds one that
    /// changes a probe prediction (falling back to the last candidate if none
    /// does). If `false`, the first random candidate is returned.
    pub require_misclassification: bool,
}

impl Default for SingleBiasAttack {
    fn default() -> Self {
        Self {
            magnitude: 10.0,
            max_tries: 32,
            require_misclassification: true,
        }
    }
}

impl SingleBiasAttack {
    /// Attack with a custom magnitude and defaults otherwise.
    pub fn with_magnitude(magnitude: f32) -> Self {
        Self {
            magnitude,
            ..Self::default()
        }
    }
}

impl Attack for SingleBiasAttack {
    fn name(&self) -> &'static str {
        "sba"
    }

    fn generate(
        &self,
        network: &Network,
        probes: &[Tensor],
        rng: &mut StdRng,
    ) -> Result<Perturbation> {
        if self.magnitude == 0.0 {
            return Err(FaultError::InvalidConfig {
                reason: "SBA magnitude must be non-zero".to_string(),
            });
        }
        let mut bias_indices = network.param_layout().bias_indices();
        if bias_indices.is_empty() {
            return Err(FaultError::InvalidConfig {
                reason: "network has no bias parameters".to_string(),
            });
        }
        bias_indices.shuffle(rng);
        let needs_probe_check = self.require_misclassification && !probes.is_empty();
        // The clean predictions are the same for every candidate bias.
        let clean = if needs_probe_check {
            predictions(&FloatIp::new(network.clone()), probes)?
        } else {
            Vec::new()
        };

        let mut fallback: Option<Perturbation> = None;
        for &index in bias_indices.iter().take(self.max_tries.max(1)) {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let old = network.parameter(index)?;
            let perturbation = Perturbation::new(
                vec![ParamEdit {
                    index,
                    new_value: old + sign * self.magnitude,
                }],
                "sba",
            );
            if !needs_probe_check {
                return Ok(perturbation);
            }
            let tampered = FloatIp::new(perturbation.apply_to_network(network)?);
            if moves_any_prediction(&tampered, probes, &clean)? {
                return Ok(perturbation);
            }
            fallback = Some(perturbation);
        }
        Ok(fallback.expect("at least one candidate was generated"))
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
            .map(|i| Tensor::from_fn(&[dim], |j| ((i * dim + j) as f32 * 0.17).sin()))
            .collect()
    }

    #[test]
    fn perturbs_exactly_one_bias_by_the_configured_magnitude() {
        let net = zoo::tiny_mlp(6, 12, 4, Activation::Relu, 3).unwrap();
        let attack = SingleBiasAttack::with_magnitude(5.0);
        let mut rng = StdRng::seed_from_u64(1);
        let p = attack.generate(&net, &probes(4, 6), &mut rng).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.source, "sba");
        let idx = p.edits[0].index;
        assert!(net.param_layout().bias_indices().contains(&idx));
        let change = (p.edits[0].new_value - net.parameter(idx).unwrap()).abs();
        assert!((change - 5.0).abs() < 1e-5);
    }

    #[test]
    fn effective_attack_changes_some_probe_prediction() {
        let net = zoo::tiny_mlp(6, 12, 4, Activation::Tanh, 7).unwrap();
        let attack = SingleBiasAttack::default();
        let mut rng = StdRng::seed_from_u64(2);
        let pr = probes(8, 6);
        let p = attack.generate(&net, &pr, &mut rng).unwrap();
        assert!(changes_any_prediction(&net, &p, &pr).unwrap());
    }

    #[test]
    fn search_picks_the_candidate_the_public_check_picks_on_a_conv_model() {
        // `generate` scores candidates against clean predictions computed once;
        // the same seeded search through the public `changes_any_prediction`
        // (which recomputes them per call) must pick the same perturbation.
        let net = zoo::tiny_cnn(4, 3, Activation::Relu, 13).unwrap();
        let pr: Vec<Tensor> = (0..6)
            .map(|i| Tensor::from_fn(&[1, 8, 8], |j| ((i * 64 + j) as f32 * 0.29).sin()))
            .collect();
        let attack = SingleBiasAttack {
            magnitude: 0.4,
            max_tries: 8,
            require_misclassification: true,
        };
        let mut flipped = 0;
        for seed in 0..12 {
            let chosen = attack
                .generate(&net, &pr, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut indices = net.param_layout().bias_indices();
            indices.shuffle(&mut rng);
            let mut expected = None;
            for &index in indices.iter().take(attack.max_tries) {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                let candidate = Perturbation::new(
                    vec![ParamEdit {
                        index,
                        new_value: net.parameter(index).unwrap() + sign * attack.magnitude,
                    }],
                    "sba",
                );
                let flips = changes_any_prediction(&net, &candidate, &pr).unwrap();
                expected = Some(candidate);
                if flips {
                    flipped += 1;
                    break;
                }
            }
            assert_eq!(chosen, expected.unwrap(), "seed {seed}");
        }
        // The magnitude leaves some searches without a flip, so both the
        // early return and the fallback are exercised.
        assert!(0 < flipped && flipped < 12, "{flipped}/12 searches flipped");
    }

    #[test]
    fn zero_magnitude_is_rejected() {
        let net = zoo::tiny_mlp(4, 4, 2, Activation::Relu, 0).unwrap();
        let attack = SingleBiasAttack::with_magnitude(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(attack.generate(&net, &[], &mut rng).is_err());
    }

    #[test]
    fn different_seeds_pick_different_victims() {
        let net = zoo::tiny_mlp(8, 32, 6, Activation::Relu, 11).unwrap();
        let attack = SingleBiasAttack {
            require_misclassification: false,
            ..SingleBiasAttack::default()
        };
        let mut seen = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = attack.generate(&net, &[], &mut rng).unwrap();
            seen.insert(p.edits[0].index);
        }
        assert!(
            seen.len() > 3,
            "expected variety of victim biases, got {seen:?}"
        );
    }
}
