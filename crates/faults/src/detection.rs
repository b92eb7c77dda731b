//! Detection-rate evaluation: replay a functional-test suite against golden and
//! tampered IPs and count how often tampering is exposed.
//!
//! This is the measurement behind the paper's Tables II and III: for each trial
//! an attack generates a fresh perturbation, the perturbed model is run on the
//! functional tests, and the perturbation counts as *detected* if any test's
//! output no longer matches the vendor's golden output.

use dnnip_accel::ip::{DnnIp, FloatIp};
use dnnip_nn::Network;
use dnnip_tensor::par::{self, ExecPolicy};
use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::attacks::Attack;
use crate::{FaultError, Result};

/// How user-side outputs are compared against the vendor's golden outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchPolicy {
    /// Only the predicted class (argmax) must match. This is what an IP user with
    /// a classification API can always do.
    ArgMax,
    /// The full output vector must match within an absolute tolerance. Stricter;
    /// requires the IP to expose raw scores.
    OutputTolerance(f32),
}

impl Default for MatchPolicy {
    fn default() -> Self {
        MatchPolicy::OutputTolerance(1e-4)
    }
}

impl MatchPolicy {
    /// Whether `observed` is consistent with `golden` under this policy.
    pub fn matches(&self, golden: &Tensor, observed: &Tensor) -> bool {
        match *self {
            MatchPolicy::ArgMax => match (golden.argmax(), observed.argmax()) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            },
            MatchPolicy::OutputTolerance(tol) => golden.approx_eq(observed, tol),
        }
    }
}

/// Compute golden outputs for a set of functional tests on a (trusted) IP.
///
/// # Errors
///
/// Returns an error if any test's shape is incompatible with the IP.
pub fn golden_outputs(ip: &dyn DnnIp, tests: &[Tensor]) -> Result<Vec<Tensor>> {
    Ok(ip.infer_batch(tests)?)
}

/// Predicted class of every probe on `ip`, from one batched inference.
pub(crate) fn predictions(ip: &dyn DnnIp, probes: &[Tensor]) -> Result<Vec<usize>> {
    ip.infer_batch(probes)?
        .iter()
        .map(|logits| Ok(logits.argmax()?))
        .collect()
}

/// Whether `ip` predicts anything but `clean` (one class per probe) on some
/// probe; stops at the first probe that moved.
pub(crate) fn moves_any_prediction(
    ip: &dyn DnnIp,
    probes: &[Tensor],
    clean: &[usize],
) -> Result<bool> {
    for (probe, &class) in probes.iter().zip(clean) {
        if ip.predict(probe)? != class {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Whether the IP under test deviates from the golden outputs on any functional
/// test (i.e. whether tampering would be *detected*).
///
/// # Errors
///
/// Returns [`FaultError::InvalidSuite`] when `tests` and `golden` differ in
/// length, or an inference error for incompatible shapes.
pub fn is_detected(
    ip: &dyn DnnIp,
    tests: &[Tensor],
    golden: &[Tensor],
    policy: MatchPolicy,
) -> Result<bool> {
    if tests.len() != golden.len() {
        return Err(FaultError::InvalidSuite {
            reason: format!("{} tests but {} golden outputs", tests.len(), golden.len()),
        });
    }
    // One test at a time: a tampered IP is usually exposed by an early test,
    // and the replay stops there.
    for (test, gold) in tests.iter().zip(golden) {
        let observed = ip.infer(test)?;
        if !policy.matches(gold, &observed) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Configuration of a detection-rate experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Number of independent perturbation trials.
    pub trials: usize,
    /// Base RNG seed; each trial derives its own independent stream from it.
    pub seed: u64,
    /// Output comparison policy.
    pub policy: MatchPolicy,
    /// How trials execute. Each trial is an independent attack + replay with
    /// its own seed-derived RNG, so serial and threaded runs produce identical
    /// reports.
    pub exec: ExecPolicy,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        Self {
            trials: 200,
            seed: 0,
            policy: MatchPolicy::default(),
            exec: ExecPolicy::Serial,
        }
    }
}

/// Per-trial RNG seed: a SplitMix64 step over `(seed, trial)`, so every trial
/// owns an independent deterministic stream regardless of which worker runs it
/// (and of how many trials ran before it).
fn trial_seed(seed: u64, trial: u64) -> u64 {
    let mut z = seed
        .wrapping_add(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Result of a detection-rate experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectionReport {
    /// Number of trials executed.
    pub trials: usize,
    /// Trials in which the functional tests exposed the perturbation.
    pub detected: usize,
    /// Trials in which the perturbation changed the prediction of at least one
    /// probe input (i.e. the attack was actually effective).
    pub effective: usize,
}

impl DetectionReport {
    /// Fraction of trials detected, in `[0, 1]`.
    pub fn detection_rate(&self) -> f32 {
        if self.trials == 0 {
            0.0
        } else {
            self.detected as f32 / self.trials as f32
        }
    }

    /// Fraction of trials in which the attack changed probe behaviour.
    pub fn effectiveness_rate(&self) -> f32 {
        if self.trials == 0 {
            0.0
        } else {
            self.effective as f32 / self.trials as f32
        }
    }
}

/// Run a detection-rate experiment: `trials` independent perturbations of
/// `network` generated by `attack`, each checked against the functional tests.
///
/// `probes` serve two purposes: attacks that need victim inputs (GDA, effective
/// SBA) draw them from here, and the report's `effective` counter measures how
/// many perturbations changed at least one probe prediction.
///
/// Every model is observed through a [`FloatIp`]: one golden IP answers the
/// golden outputs and clean probe predictions, and each trial builds one
/// tampered IP for both its detection replay and its effectiveness check.
///
/// Trials are distributed over [`DetectionConfig::exec`] workers. Each trial
/// seeds its own RNG from `(config.seed, trial index)`, so the report is
/// bit-identical for every execution policy (pinned by
/// `tests/parallel_equivalence.rs`).
///
/// # Errors
///
/// Returns an error if the test suite is empty, the attack fails, or shapes are
/// inconsistent.
pub fn detection_rate(
    network: &Network,
    attack: &dyn Attack,
    probes: &[Tensor],
    tests: &[Tensor],
    config: &DetectionConfig,
) -> Result<DetectionReport> {
    if tests.is_empty() {
        return Err(FaultError::InvalidSuite {
            reason: "empty functional-test suite".to_string(),
        });
    }
    let golden_ip = FloatIp::new(network.clone());
    let golden = golden_outputs(&golden_ip, tests)?;
    let probe_predictions = predictions(&golden_ip, probes)?;

    let trial_indices: Vec<u64> = (0..config.trials as u64).collect();
    let outcomes = par::try_map(
        config.exec,
        &trial_indices,
        |&trial| -> Result<(bool, bool)> {
            let mut rng = StdRng::seed_from_u64(trial_seed(config.seed, trial));
            let perturbation = attack.generate(network, probes, &mut rng)?;
            // One tampered IP per trial serves both the detection replay and
            // the effectiveness check.
            let tampered_ip = FloatIp::new(perturbation.apply_to_network(network)?);
            let detected = is_detected(&tampered_ip, tests, &golden, config.policy)?;
            let effective = moves_any_prediction(&tampered_ip, probes, &probe_predictions)?;
            Ok((detected, effective))
        },
    )?;
    let mut report = DetectionReport {
        trials: config.trials,
        ..DetectionReport::default()
    };
    for (detected, effective) in outcomes {
        if detected {
            report.detected += 1;
        }
        if effective {
            report.effective += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{RandomPerturbation, SingleBiasAttack};
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(6, 16, 4, Activation::Relu, 21).unwrap()
    }

    fn inputs(n: usize, offset: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| (((i + offset) * 6 + j) as f32 * 0.19).sin()))
            .collect()
    }

    #[test]
    fn match_policies() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![0.2, 0.8, 0.0], &[3]).unwrap();
        let c = Tensor::from_vec(vec![0.9, 0.1, 0.0], &[3]).unwrap();
        assert!(MatchPolicy::ArgMax.matches(&a, &b));
        assert!(!MatchPolicy::ArgMax.matches(&a, &c));
        assert!(!MatchPolicy::OutputTolerance(1e-3).matches(&a, &b));
        assert!(MatchPolicy::OutputTolerance(0.5).matches(&a, &b));
    }

    #[test]
    fn golden_outputs_and_detection_round_trip() {
        let network = net();
        let ip = FloatIp::new(network.clone());
        let tests = inputs(5, 0);
        let golden = golden_outputs(&ip, &tests).unwrap();
        assert_eq!(golden.len(), 5);
        // The unmodified IP is never flagged.
        assert!(!is_detected(&ip, &tests, &golden, MatchPolicy::default()).unwrap());
        // A grossly tampered IP is flagged.
        let mut tampered = network.clone();
        let last = tampered.num_parameters() - 1;
        tampered.set_parameter(last, 50.0).unwrap();
        let tampered_ip = FloatIp::new(tampered);
        assert!(is_detected(&tampered_ip, &tests, &golden, MatchPolicy::default()).unwrap());
        // Mismatched suite lengths are rejected.
        assert!(is_detected(&ip, &tests, &golden[..3], MatchPolicy::default()).is_err());
    }

    #[test]
    fn detection_rate_reports_are_consistent() {
        let network = net();
        let attack = SingleBiasAttack::with_magnitude(20.0);
        let probes = inputs(6, 0);
        let tests = inputs(10, 100);
        let config = DetectionConfig {
            trials: 25,
            seed: 3,
            policy: MatchPolicy::OutputTolerance(1e-4),
            exec: ExecPolicy::Serial,
        };
        let report = detection_rate(&network, &attack, &probes, &tests, &config).unwrap();
        assert_eq!(report.trials, 25);
        assert!(report.detected <= report.trials);
        assert!(report.effective <= report.trials);
        assert!((0.0..=1.0).contains(&report.detection_rate()));
        // A 20.0 bias overwrite on a tiny network with a strict tolerance policy
        // is essentially always visible on 10 tests.
        assert!(
            report.detection_rate() > 0.9,
            "rate {}",
            report.detection_rate()
        );
    }

    #[test]
    fn more_tests_never_decrease_detection() {
        let network = net();
        let attack = RandomPerturbation {
            num_params: 2,
            std: 0.8,
        };
        let probes = inputs(4, 0);
        let many = inputs(20, 200);
        let config = DetectionConfig {
            trials: 40,
            seed: 11,
            policy: MatchPolicy::OutputTolerance(1e-4),
            exec: ExecPolicy::Threads(2),
        };
        let few_report = detection_rate(&network, &attack, &probes, &many[..2], &config).unwrap();
        let many_report = detection_rate(&network, &attack, &probes, &many, &config).unwrap();
        assert!(
            many_report.detected >= few_report.detected,
            "more tests should detect at least as many perturbations ({} vs {})",
            many_report.detected,
            few_report.detected
        );
    }

    #[test]
    fn detection_trials_are_execution_policy_invariant() {
        let network = net();
        let probes = inputs(5, 0);
        let tests = inputs(8, 50);
        let attacks: [Box<dyn Attack>; 2] = [
            Box::new(SingleBiasAttack::with_magnitude(3.0)),
            Box::new(RandomPerturbation {
                num_params: 3,
                std: 0.4,
            }),
        ];
        for attack in &attacks {
            let base = DetectionConfig {
                trials: 30,
                seed: 9,
                policy: MatchPolicy::ArgMax,
                exec: ExecPolicy::Serial,
            };
            let serial = detection_rate(&network, attack.as_ref(), &probes, &tests, &base).unwrap();
            for threads in [2usize, 4, 64] {
                let threaded = detection_rate(
                    &network,
                    attack.as_ref(),
                    &probes,
                    &tests,
                    &DetectionConfig {
                        exec: ExecPolicy::Threads(threads),
                        ..base
                    },
                )
                .unwrap();
                assert_eq!(
                    serial,
                    threaded,
                    "{}: report diverged under Threads({threads})",
                    attack.name()
                );
            }
        }
    }

    #[test]
    fn trial_seeds_are_distinct_and_deterministic() {
        let mut seen = std::collections::HashSet::new();
        for trial in 0..100 {
            let s = trial_seed(7, trial);
            assert_eq!(s, trial_seed(7, trial));
            assert!(seen.insert(s), "trial {trial} repeated a seed");
        }
        assert_ne!(trial_seed(7, 0), trial_seed(8, 0));
    }

    #[test]
    fn empty_suite_is_rejected_and_empty_report_is_safe() {
        let network = net();
        let attack = SingleBiasAttack::default();
        let config = DetectionConfig::default();
        assert!(detection_rate(&network, &attack, &[], &[], &config).is_err());
        let empty = DetectionReport::default();
        assert_eq!(empty.detection_rate(), 0.0);
        assert_eq!(empty.effectiveness_rate(), 0.0);
    }
}
