//! Algorithm 2: gradient-based test generation.
//!
//! When the training set stops contributing new coverage, the paper synthesizes
//! new inputs instead: for every output category `i`, start from a blank input
//! and run `T` steps of gradient descent on the classification loss
//! `J(x, y_i, θ)` **with respect to the input** (Eq. 8). After `T` steps the
//! synthetic sample is classified as category `i` and, like a real training
//! sample of that category, activates the corresponding parameters.
//!
//! The `k` per-class descents of one batch are driven as **one stacked batch
//! per step** through the shared [`BatchGradientEngine`]: each step runs a
//! single batched forward pass over all `k` current states, then extracts one
//! per-sample input gradient per class (fanned out over
//! [`GradGenConfig::exec`] workers). Per-sample arithmetic is independent of
//! the batch composition, so a batch of one ([`GradientGenerator::synthesize`])
//! and the stacked batch produce bit-identical trajectories — pinned by the
//! differential tests below and in `tests/parallel_equivalence.rs`.
//!
//! One detail is under-specified in the paper: Algorithm 2 re-initializes every
//! round "with all zeros", which would make every round produce identical tests
//! and the coverage curve flat after the first batch. To obtain the steadily
//! rising curve of Fig. 3 the rounds must differ, so this implementation seeds
//! each round after the first with a small random initialization (configurable
//! via [`GradGenConfig::init_noise`]); round 0 uses the paper's all-zero start.
//! This is the implementation's one deviation from Algorithm 2 as written.

use std::sync::Arc;

use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::loss::cross_entropy;
use dnnip_nn::Network;
use dnnip_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::criterion::GradientObjective;
use crate::par::{self, ExecPolicy};
use crate::{CoreError, Result};

/// Backtracking line-search configuration for the descent step size η.
///
/// When enabled ([`GradGenConfig::line_search`]), each descent step proposes
/// `x' = x − η·∇x J` and accepts it only if it satisfies the Armijo
/// sufficient-decrease condition `J(x') ≤ J(x) − c·η·‖∇x J‖²`; rejected
/// proposals shrink η by `shrink` and retry, up to `max_backtracks` times
/// (after which the last proposal is taken so the descent always advances).
/// All candidate evaluations of one trial round run as **one stacked batched
/// forward pass** over every not-yet-accepted class, so the line search rides
/// the same amortization as the descent itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSearchConfig {
    /// Multiplicative η shrink factor per rejected trial, in `(0, 1)`.
    pub shrink: f32,
    /// Maximum number of backtracking trials per sample per step.
    pub max_backtracks: usize,
    /// Armijo sufficient-decrease coefficient `c` (typically small).
    pub c: f32,
}

impl Default for LineSearchConfig {
    fn default() -> Self {
        Self {
            shrink: 0.5,
            max_backtracks: 4,
            c: 1e-4,
        }
    }
}

/// Configuration of the gradient-based test generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradGenConfig {
    /// Step size η of the input-space gradient descent (Eq. 8).
    pub eta: f32,
    /// Number of gradient-descent updates T per synthetic sample.
    pub steps: usize,
    /// Amplitude of the random initialization used for rounds after the first
    /// (0.0 reproduces the paper's all-zero initialization for every round).
    pub init_noise: f32,
    /// Optional clamp applied to the synthetic inputs after every update,
    /// e.g. `(0.0, 1.0)` to stay in the image domain.
    pub clamp: Option<(f32, f32)>,
    /// RNG seed for the random initializations.
    pub seed: u64,
    /// How the per-sample gradient extractions of each stacked descent step
    /// execute. Initial states are drawn serially from the seeded RNG before
    /// any step runs, and per-sample work is pure, so results are identical
    /// for every policy.
    pub exec: ExecPolicy,
    /// Optional backtracking line search on η. `None` (the default) runs the
    /// paper's fixed-step descent bit for bit; `Some` amortizes the candidate
    /// evaluations over the stacked per-step batch.
    pub line_search: Option<LineSearchConfig>,
}

impl Default for GradGenConfig {
    fn default() -> Self {
        Self {
            eta: 0.5,
            steps: 20,
            init_noise: 0.1,
            clamp: Some((0.0, 1.0)),
            seed: 0,
            exec: ExecPolicy::Serial,
            line_search: None,
        }
    }
}

/// A synthetic functional test produced by Algorithm 2.
#[derive(Debug, Clone)]
pub struct SyntheticTest {
    /// The generated input.
    pub input: Tensor,
    /// The class the generator was steering towards.
    pub target_class: usize,
    /// Whether the network actually classifies the input as `target_class`.
    pub classified_correctly: bool,
    /// Cross-entropy loss towards the target class after the final update.
    pub final_loss: f32,
}

/// Gradient-based test generator (Algorithm 2), running on the batched engine.
///
/// The descent objective defaults to the paper's softmax cross-entropy
/// (Eq. 8); a [`crate::criterion::CoverageCriterion`] may substitute its own
/// [`GradientObjective`] through [`GradientGenerator::with_objective`] (the
/// [`crate::eval::Evaluator`] wires this automatically).
#[derive(Debug, Clone)]
pub struct GradientGenerator {
    engine: BatchGradientEngine,
    config: GradGenConfig,
    rng: StdRng,
    round: usize,
    /// Criterion-supplied synthesis objective; `None` falls back to the
    /// paper's cross-entropy objective (the exact pre-hook code path).
    objective: Option<Arc<dyn GradientObjective>>,
}

impl GradientGenerator {
    /// Create a generator for `network` (builds a fresh batched engine).
    pub fn new(network: impl Into<Arc<Network>>, config: GradGenConfig) -> Self {
        Self::with_engine(BatchGradientEngine::new(network), config)
    }

    /// Create a generator around an existing engine, reusing its precomputed
    /// per-layer weight matrices (the [`crate::eval::Evaluator`] hands its
    /// analyzer's engine here so coverage and synthesis share one).
    pub fn with_engine(engine: BatchGradientEngine, config: GradGenConfig) -> Self {
        Self {
            engine,
            config,
            rng: StdRng::seed_from_u64(config.seed),
            round: 0,
            objective: None,
        }
    }

    /// Replace the synthesis objective (`None` restores the paper's
    /// cross-entropy descent). Builder-style so the evaluator can attach a
    /// criterion's gradient hook in one expression.
    pub fn with_objective(mut self, objective: Option<Arc<dyn GradientObjective>>) -> Self {
        self.objective = objective;
        self
    }

    /// Name of the criterion-supplied objective, or `None` when the generator
    /// runs the paper's cross-entropy descent.
    pub fn objective_name(&self) -> Option<&'static str> {
        self.objective.as_ref().map(|o| o.name())
    }

    /// The network tests are generated for.
    pub fn network(&self) -> &Network {
        self.engine.network()
    }

    /// Number of tests produced per batch (= number of output classes, one
    /// synthetic sample per category).
    pub fn batch_size(&self) -> usize {
        self.network().num_classes()
    }

    /// Run the stacked gradient descent: all states advance together, one
    /// batched forward per step, per-sample gradient extraction fanned out
    /// over [`GradGenConfig::exec`].
    fn descend(&self, inits: Vec<Tensor>, targets: &[usize]) -> Result<Vec<SyntheticTest>> {
        let classes = self.network().num_classes();
        if let Some(&bad) = targets.iter().find(|&&t| t >= classes) {
            return Err(CoreError::InvalidConfig {
                reason: format!("target class {bad} out of range for {classes} classes"),
            });
        }
        let mut states = inits;
        let mut losses = vec![f32::INFINITY; states.len()];
        let indices: Vec<usize> = (0..states.len()).collect();
        if let Some(ls) = self.config.line_search {
            for _ in 0..self.config.steps {
                self.line_search_step(&ls, &mut states, &mut losses, targets, &indices)?;
            }
            return self.finish(states, targets, losses);
        }
        for _ in 0..self.config.steps {
            let pass = self.engine.forward_batch(&states)?;
            let stepped: Vec<(Tensor, f32)> =
                par::try_map(self.config.exec, &indices, |&s| -> Result<(Tensor, f32)> {
                    let target = targets[s];
                    let logits = ops::row(pass.output(), s)?.reshape(&[1, classes])?;
                    // The gradient extraction stays inside each arm so the
                    // default cross-entropy path passes its logit-gradient
                    // slice straight through without a per-step allocation.
                    let (loss_value, grad) = match &self.objective {
                        Some(objective) => {
                            let (value, grad_logits) =
                                objective.loss_and_logit_grad(&logits, target)?;
                            (value, self.engine.input_gradient(&pass, s, &grad_logits)?)
                        }
                        None => {
                            let loss = cross_entropy(&logits, &[target])?;
                            let grad =
                                self.engine
                                    .input_gradient(&pass, s, loss.grad_logits.data())?;
                            (loss.value, grad)
                        }
                    };
                    let mut x = states[s].clone();
                    if grad.max_abs() == 0.0 {
                        // Dead start: with an all-zero input a ReLU network can
                        // have every hidden unit inactive, so ∇x J is identically
                        // zero and Eq. 8 cannot make progress. Nudge the input
                        // with a small deterministic jitter (keyed by the target
                        // class) to leave the dead region.
                        x.add_assign(&Self::dead_start_jitter(x.shape(), target))?;
                    } else {
                        // x ← x − η ∇x J(x, y_i, θ)   (Eq. 8)
                        x.axpy(-self.config.eta, &grad)?;
                    }
                    if let Some((lo, hi)) = self.config.clamp {
                        x = x.clamp(lo, hi);
                    }
                    Ok((x, loss_value))
                })?;
            for (s, (next, loss)) in stepped.into_iter().enumerate() {
                states[s] = next;
                losses[s] = loss;
            }
        }
        self.finish(states, targets, losses)
    }

    /// Wrap the final descent states into [`SyntheticTest`]s.
    fn finish(
        &self,
        states: Vec<Tensor>,
        targets: &[usize],
        losses: Vec<f32>,
    ) -> Result<Vec<SyntheticTest>> {
        states
            .into_iter()
            .zip(targets)
            .zip(losses)
            .map(|((input, &target_class), final_loss)| {
                let predicted = self.network().predict_sample(&input)?;
                Ok(SyntheticTest {
                    input,
                    target_class,
                    classified_correctly: predicted == target_class,
                    final_loss,
                })
            })
            .collect()
    }

    /// The deterministic dead-start jitter of the fixed-step path (keyed by
    /// the target class), used when `∇x J` is identically zero.
    fn dead_start_jitter(shape: &[usize], target: usize) -> Tensor {
        Tensor::from_fn(shape, |i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(target as u64 + 1);
            ((h % 1000) as f32 / 1000.0) * 0.05
        })
    }

    /// Loss of one candidate's logits row under the active objective.
    fn loss_of(&self, logits: &Tensor, target: usize) -> Result<f32> {
        Ok(match &self.objective {
            Some(objective) => objective.loss_and_logit_grad(logits, target)?.0,
            None => cross_entropy(logits, &[target])?.value,
        })
    }

    /// One descent step under the backtracking line search: a single stacked
    /// forward + per-sample gradient extraction (exactly like the fixed-step
    /// path), then up to `max_backtracks + 1` trial rounds where every
    /// not-yet-accepted candidate is evaluated in **one** batched forward pass
    /// and accepted on the Armijo condition.
    fn line_search_step(
        &self,
        ls: &LineSearchConfig,
        states: &mut [Tensor],
        losses: &mut [f32],
        targets: &[usize],
        indices: &[usize],
    ) -> Result<()> {
        let classes = self.network().num_classes();
        let pass = self.engine.forward_batch(states)?;
        // Per sample: (loss at the current state, ∇x J, ‖∇x J‖²). The squared
        // norm is fixed for the whole step, so it is computed once here, not
        // once per backtracking trial.
        let evals: Vec<(f32, Tensor, f32)> = par::try_map(
            self.config.exec,
            indices,
            |&s| -> Result<(f32, Tensor, f32)> {
                let target = targets[s];
                let logits = ops::row(pass.output(), s)?.reshape(&[1, classes])?;
                let (value, grad) = match &self.objective {
                    Some(objective) => {
                        let (value, grad_logits) =
                            objective.loss_and_logit_grad(&logits, target)?;
                        (value, self.engine.input_gradient(&pass, s, &grad_logits)?)
                    }
                    None => {
                        let loss = cross_entropy(&logits, &[target])?;
                        let grad = self
                            .engine
                            .input_gradient(&pass, s, loss.grad_logits.data())?;
                        (loss.value, grad)
                    }
                };
                let gnorm2: f32 = grad.data().iter().map(|g| g * g).sum();
                Ok((value, grad, gnorm2))
            },
        )?;

        let clamp = self.config.clamp;
        let candidate = |s: usize, eta: f32, states: &[Tensor]| -> Result<Tensor> {
            let mut x = states[s].clone();
            x.axpy(-eta, &evals[s].1)?;
            if let Some((lo, hi)) = clamp {
                x = x.clamp(lo, hi);
            }
            Ok(x)
        };

        let mut accepted: Vec<Option<Tensor>> = vec![None; states.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (s, (loss_value, grad, _)) in evals.iter().enumerate() {
            losses[s] = *loss_value;
            if grad.max_abs() == 0.0 {
                // Dead start: identical jitter handling to the fixed-step path.
                let mut x = states[s].clone();
                x.add_assign(&Self::dead_start_jitter(x.shape(), targets[s]))?;
                if let Some((lo, hi)) = clamp {
                    x = x.clamp(lo, hi);
                }
                accepted[s] = Some(x);
            } else {
                pending.push(s);
            }
        }

        let mut etas = vec![self.config.eta; states.len()];
        let mut candidates: Vec<Tensor> = pending
            .iter()
            .map(|&s| candidate(s, etas[s], states))
            .collect::<Result<_>>()?;
        for trial in 0..=ls.max_backtracks {
            if pending.is_empty() {
                break;
            }
            // One stacked forward over every not-yet-accepted candidate.
            let cand_pass = self.engine.forward_batch(&candidates)?;
            let mut next_pending = Vec::new();
            let mut next_candidates = Vec::new();
            for (k, &s) in pending.iter().enumerate() {
                let logits = ops::row(cand_pass.output(), k)?.reshape(&[1, classes])?;
                let cand_loss = self.loss_of(&logits, targets[s])?;
                let gnorm2 = evals[s].2;
                // Armijo sufficient decrease; the last trial is always taken so
                // the descent can never stall on a hard step.
                if cand_loss <= losses[s] - ls.c * etas[s] * gnorm2 || trial == ls.max_backtracks {
                    accepted[s] = Some(candidates[k].clone());
                } else {
                    etas[s] *= ls.shrink;
                    next_pending.push(s);
                    next_candidates.push(candidate(s, etas[s], states)?);
                }
            }
            pending = next_pending;
            candidates = next_candidates;
        }
        for (s, x) in accepted.into_iter().enumerate() {
            states[s] = x.expect("every sample accepted, jittered, or forced on the last trial");
        }
        Ok(())
    }

    /// Synthesize one sample steered towards `target_class`, starting from `init`.
    ///
    /// Runs the same stacked-descent code path with a batch of one, so the
    /// result is bit-identical to the corresponding entry of a full
    /// [`GradientGenerator::generate_batch`] started from the same state.
    ///
    /// # Errors
    ///
    /// Returns an error when `target_class` is out of range or shapes mismatch.
    pub fn synthesize(&self, init: &Tensor, target_class: usize) -> Result<SyntheticTest> {
        let mut tests = self.descend(vec![init.clone()], &[target_class])?;
        Ok(tests.pop().expect("one test per init"))
    }

    /// Generate one batch of `k` synthetic tests, one per output category
    /// (Algorithm 2, lines 3–12), as a single stacked descent.
    ///
    /// Initial states are drawn from the seeded RNG in class order **before**
    /// the descent runs, so the produced batch is identical for every
    /// execution policy.
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn generate_batch(&mut self) -> Result<Vec<SyntheticTest>> {
        let shape = self.network().input_shape().to_vec();
        let noise = if self.round == 0 {
            0.0
        } else {
            self.config.init_noise
        };
        let targets: Vec<usize> = (0..self.batch_size()).collect();
        let inits: Vec<Tensor> = targets
            .iter()
            .map(|_| {
                if noise == 0.0 {
                    Tensor::zeros(&shape)
                } else {
                    let amplitude = noise;
                    Tensor::from_fn(&shape, |_| self.rng.gen_range(0.0..amplitude))
                }
            })
            .collect();
        self.round += 1;
        self.descend(inits, &targets)
    }

    /// Generate synthetic tests until at least `max_tests` inputs exist (whole
    /// batches are generated, so the result may slightly exceed the budget, as in
    /// the paper's Algorithm 2 loop).
    ///
    /// # Errors
    ///
    /// Propagates synthesis errors.
    pub fn generate(&mut self, max_tests: usize) -> Result<Vec<SyntheticTest>> {
        let mut out = Vec::new();
        while out.len() < max_tests {
            out.extend(self.generate_batch()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::{CoverageAnalyzer, CoverageConfig};
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(6, 16, 4, Activation::Relu, 33).unwrap()
    }

    #[test]
    fn batch_contains_one_test_per_class() {
        let network = net();
        let mut generator = GradientGenerator::new(&network, GradGenConfig::default());
        assert_eq!(generator.batch_size(), 4);
        let batch = generator.generate_batch().unwrap();
        assert_eq!(batch.len(), 4);
        let targets: Vec<usize> = batch.iter().map(|t| t.target_class).collect();
        assert_eq!(targets, vec![0, 1, 2, 3]);
        for t in &batch {
            assert_eq!(t.input.shape(), network.input_shape());
            assert!(!t.input.has_non_finite());
        }
    }

    #[test]
    fn most_synthetic_tests_reach_their_target_class() {
        let network = net();
        let config = GradGenConfig {
            eta: 1.0,
            steps: 50,
            clamp: None,
            ..GradGenConfig::default()
        };
        let mut generator = GradientGenerator::new(&network, config);
        let batch = generator.generate_batch().unwrap();
        let hits = batch.iter().filter(|t| t.classified_correctly).count();
        assert!(
            hits >= 3,
            "only {hits}/4 synthetic tests reached their class"
        );
    }

    #[test]
    fn gradient_descent_reduces_the_target_loss() {
        let network = net();
        let generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                eta: 0.5,
                steps: 30,
                clamp: None,
                ..GradGenConfig::default()
            },
        );
        let zero = Tensor::zeros(&[6]);
        let initial_loss = {
            let batch = network.batch_one(&zero).unwrap();
            let out = network.forward(&batch).unwrap();
            cross_entropy(&out, &[2]).unwrap().value
        };
        let result = generator.synthesize(&zero, 2).unwrap();
        assert!(
            result.final_loss < initial_loss,
            "loss did not decrease: {initial_loss} -> {}",
            result.final_loss
        );
        assert!(generator.synthesize(&zero, 99).is_err());
    }

    #[test]
    fn stacked_batch_is_bit_identical_to_per_class_synthesis() {
        // Per-sample arithmetic must not depend on what else rides in the
        // stacked batch: synthesizing class-by-class from the same starts
        // reproduces the batch exactly, bit for bit.
        for activation in [Activation::Relu, Activation::Tanh] {
            let network = zoo::tiny_mlp(6, 12, 4, activation, 9).unwrap();
            let config = GradGenConfig {
                steps: 6,
                ..GradGenConfig::default()
            };
            let mut batched = GradientGenerator::new(&network, config);
            let batch = batched.generate_batch().unwrap();
            let single = GradientGenerator::new(&network, config);
            for t in &batch {
                // Round 0 starts all-zero for every class.
                let reference = single
                    .synthesize(&Tensor::zeros(&[6]), t.target_class)
                    .unwrap();
                assert_eq!(
                    t.input, reference.input,
                    "{activation:?} class {} diverged from the batch-of-one path",
                    t.target_class
                );
                assert_eq!(t.final_loss.to_bits(), reference.final_loss.to_bits());
                assert_eq!(t.classified_correctly, reference.classified_correctly);
            }
        }
    }

    #[test]
    fn target_logit_objective_drives_the_target_logit_up() {
        use crate::criterion::TargetLogitObjective;
        let network = net();
        let config = GradGenConfig {
            eta: 0.5,
            steps: 25,
            clamp: None,
            ..GradGenConfig::default()
        };
        let generator = GradientGenerator::new(&network, config)
            .with_objective(Some(Arc::new(TargetLogitObjective)));
        assert_eq!(generator.objective_name(), Some("target-logit"));
        let zero = Tensor::zeros(&[6]);
        let start_logit = network.forward_sample(&zero).unwrap().data()[1];
        let result = generator.synthesize(&zero, 1).unwrap();
        let end_logit = network.forward_sample(&result.input).unwrap().data()[1];
        assert!(
            end_logit > start_logit,
            "target logit did not rise: {start_logit} -> {end_logit}"
        );
        // The recorded loss is the negated target logit of the penultimate step.
        assert!(result.final_loss <= -start_logit + 1e-6);
        // Resetting the objective restores the paper's descent bit-for-bit.
        let plain = GradientGenerator::new(&network, config);
        let reset = GradientGenerator::new(&network, config)
            .with_objective(Some(Arc::new(TargetLogitObjective)))
            .with_objective(None);
        assert_eq!(
            plain.synthesize(&zero, 1).unwrap().input,
            reset.synthesize(&zero, 1).unwrap().input
        );
    }

    #[test]
    fn generate_respects_budget_in_whole_batches() {
        let network = net();
        let mut generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                steps: 3,
                ..GradGenConfig::default()
            },
        );
        let tests = generator.generate(10).unwrap();
        // 4 classes per batch -> 12 tests is the smallest multiple >= 10.
        assert_eq!(tests.len(), 12);
    }

    #[test]
    fn later_rounds_differ_from_the_first_and_add_coverage() {
        let network = net();
        let analyzer = CoverageAnalyzer::new(&network, CoverageConfig::default());
        let mut generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                steps: 10,
                ..GradGenConfig::default()
            },
        );
        let first = generator.generate_batch().unwrap();
        let second = generator.generate_batch().unwrap();
        assert_ne!(
            first[0].input, second[0].input,
            "rounds must differ for coverage to keep growing"
        );
        let first_inputs: Vec<Tensor> = first.iter().map(|t| t.input.clone()).collect();
        let both: Vec<Tensor> = first
            .iter()
            .chain(&second)
            .map(|t| t.input.clone())
            .collect();
        let c1 = analyzer.coverage_of_set(&first_inputs).unwrap();
        let c2 = analyzer.coverage_of_set(&both).unwrap();
        assert!(c2 >= c1);
    }

    #[test]
    fn line_search_off_is_the_default_and_zero_backtracks_is_bit_identical() {
        // `line_search: None` is the default (the fixed-step path, untouched).
        assert_eq!(GradGenConfig::default().line_search, None);
        // With the line search enabled but zero backtracks allowed, the full-η
        // candidate is always taken on the forced last trial — the whole
        // batched candidate-evaluation plumbing must then reproduce the
        // fixed-step descent bit for bit.
        for activation in [Activation::Relu, Activation::Tanh] {
            let network = zoo::tiny_mlp(6, 12, 4, activation, 9).unwrap();
            let fixed = GradGenConfig {
                steps: 6,
                ..GradGenConfig::default()
            };
            let forced = GradGenConfig {
                line_search: Some(LineSearchConfig {
                    max_backtracks: 0,
                    ..LineSearchConfig::default()
                }),
                ..fixed
            };
            let a = GradientGenerator::new(&network, fixed)
                .generate_batch()
                .unwrap();
            let b = GradientGenerator::new(&network, forced)
                .generate_batch()
                .unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.input, y.input, "{activation:?} diverged");
                assert_eq!(x.final_loss.to_bits(), y.final_loss.to_bits());
            }
        }
    }

    #[test]
    fn line_search_tames_an_overshooting_step_size() {
        // η = 12 overshoots badly on this model. With `c = 0` every accepted
        // trial satisfies J(x') ≤ J(x), and with 20 backtracks a forced
        // accept moves by a vanishing η — so the end-state loss can never
        // climb above the start, no matter how hostile the base step size.
        let network = net();
        let searched = GradGenConfig {
            eta: 12.0,
            steps: 12,
            clamp: None,
            line_search: Some(LineSearchConfig {
                c: 0.0,
                max_backtracks: 20,
                ..LineSearchConfig::default()
            }),
            ..GradGenConfig::default()
        };
        let loss_at = |x: &Tensor, target: usize| {
            let out = network.forward(&network.batch_one(x).unwrap()).unwrap();
            cross_entropy(&out, &[target]).unwrap().value
        };
        let generator = GradientGenerator::new(&network, searched);
        for target in 0..4 {
            let zero = Tensor::zeros(&[6]);
            let start_loss = loss_at(&zero, target);
            let result = generator.synthesize(&zero, target).unwrap();
            let end_loss = loss_at(&result.input, target);
            assert!(
                end_loss <= start_loss + 0.05,
                "class {target}: loss climbed {start_loss} -> {end_loss} despite backtracking"
            );
            assert!(!result.input.has_non_finite());
        }
    }

    #[test]
    fn line_search_synthesize_matches_its_own_stacked_batch() {
        // Batch-of-one and stacked descents stay bit-identical with the line
        // search on (candidate evaluation is per-sample arithmetic too).
        let network = net();
        let config = GradGenConfig {
            steps: 5,
            line_search: Some(LineSearchConfig::default()),
            ..GradGenConfig::default()
        };
        let mut batched = GradientGenerator::new(&network, config);
        let batch = batched.generate_batch().unwrap();
        let single = GradientGenerator::new(&network, config);
        for t in &batch {
            let reference = single
                .synthesize(&Tensor::zeros(&[6]), t.target_class)
                .unwrap();
            assert_eq!(t.input, reference.input, "class {}", t.target_class);
        }
    }

    #[test]
    fn clamp_keeps_inputs_in_range() {
        let network = net();
        let mut generator = GradientGenerator::new(
            &network,
            GradGenConfig {
                eta: 5.0,
                steps: 10,
                clamp: Some((0.0, 1.0)),
                ..GradGenConfig::default()
            },
        );
        for t in generator.generate_batch().unwrap() {
            assert!(t.input.min().unwrap() >= 0.0);
            assert!(t.input.max().unwrap() <= 1.0);
        }
    }
}
