//! The vendor/user validation protocol (paper Fig. 1).
//!
//! The vendor trains the model, generates functional tests `X`, computes golden
//! outputs `Y` on the trusted model, and releases `(X, Y)` together with the
//! black-box IP. The user replays `X` on the received IP and compares the
//! observed outputs `Y'` with `Y`: any mismatch means the IP's parameters were
//! perturbed somewhere along the unsecure distribution path.
//!
//! [`FunctionalTestSuite`] is the `(X, Y)` package; [`FunctionalTestSuite::validate`]
//! is the user-side check. It only needs a `&dyn DnnIp`, so the user code cannot
//! accidentally depend on model internals. The suite serializes to a
//! self-contained byte format so it can be shipped next to the IP. The paper
//! additionally encrypts the package; this reproduction ships it in the clear,
//! because key management does not change which tampering the tests expose.

use dnnip_accel::ip::DnnIp;
use dnnip_faults::detection::MatchPolicy;
use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::Network;
use dnnip_tensor::{ops, Tensor};

use crate::eval::Evaluator;
use crate::{CoreError, Result};

/// The vendor's released validation package: functional tests plus golden
/// outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalTestSuite {
    /// The functional-test inputs `X`.
    pub inputs: Vec<Tensor>,
    /// The golden outputs `Y`, one per input, computed on the trusted model.
    pub golden_outputs: Vec<Tensor>,
    /// How the user should compare observed outputs against `Y`.
    pub policy: MatchPolicy,
}

/// The user-side verdict after replaying a suite on an IP.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationOutcome {
    /// `true` when every test's output matched its golden output.
    pub passed: bool,
    /// Index of the first failing test, if any.
    pub first_failure: Option<usize>,
    /// Number of tests whose outputs did not match.
    pub num_mismatches: usize,
    /// Number of tests replayed.
    pub num_tests: usize,
}

impl FunctionalTestSuite {
    /// Vendor side: compute golden outputs for `inputs` on the trusted `network`,
    /// in one batched engine pass — the outputs a [`dnnip_accel::ip::FloatIp`]
    /// of `network` reports.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] for an empty test list and propagates
    /// inference errors for incompatible shapes.
    pub fn from_network(
        network: &Network,
        inputs: Vec<Tensor>,
        policy: MatchPolicy,
    ) -> Result<Self> {
        if inputs.is_empty() {
            return Err(CoreError::InvalidSuite {
                reason: "a functional-test suite needs at least one test".to_string(),
            });
        }
        let pass = BatchGradientEngine::new(network.clone()).forward_batch(&inputs)?;
        let golden_outputs = ops::unstack(pass.output())?;
        Ok(Self {
            inputs,
            golden_outputs,
            policy,
        })
    }

    /// Vendor side, cache-aware: compute golden outputs through `evaluator`'s
    /// forward-output cache ([`Evaluator::forward_outputs`]).
    ///
    /// Golden outputs are bit-identical to
    /// [`FunctionalTestSuite::from_network`] on the same network; the win is
    /// that repeated suite construction over overlapping test prefixes (the
    /// Table II/III budget sweeps, [`FunctionalTestSuite::prefix`] refreshes)
    /// replays no inference for already-seen tests.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] for an empty test list and propagates
    /// inference errors for incompatible shapes.
    pub fn from_evaluator(
        evaluator: &Evaluator,
        inputs: Vec<Tensor>,
        policy: MatchPolicy,
    ) -> Result<Self> {
        if inputs.is_empty() {
            return Err(CoreError::InvalidSuite {
                reason: "a functional-test suite needs at least one test".to_string(),
            });
        }
        let golden_outputs = evaluator.forward_outputs(&inputs)?;
        Ok(Self {
            inputs,
            golden_outputs,
            policy,
        })
    }

    /// The suite of the first `n` tests (golden outputs are reused, not
    /// recomputed) — how a vendor derives the nested budgets of the paper's
    /// Table II/III sweeps from one maximal suite.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] when `n` is zero or exceeds the
    /// suite length.
    pub fn prefix(&self, n: usize) -> Result<Self> {
        if n == 0 || n > self.inputs.len() {
            return Err(CoreError::InvalidSuite {
                reason: format!(
                    "prefix length {n} out of range for a suite of {}",
                    self.inputs.len()
                ),
            });
        }
        Ok(Self {
            inputs: self.inputs[..n].to_vec(),
            golden_outputs: self.golden_outputs[..n].to_vec(),
            policy: self.policy,
        })
    }

    /// Number of functional tests in the suite.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the suite contains no tests.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// User side: replay the suite against a black-box IP and compare outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if the IP rejects a test input (wrong shape) — a sign the
    /// delivered IP does not even match the advertised interface.
    pub fn validate(&self, ip: &dyn DnnIp) -> Result<ValidationOutcome> {
        let observed = ip
            .infer_batch(&self.inputs)
            .map_err(|e| CoreError::InvalidSuite {
                reason: format!("IP rejected the functional tests: {e}"),
            })?;
        let mut first_failure = None;
        let mut num_mismatches = 0usize;
        for (i, (observed, golden)) in observed.iter().zip(&self.golden_outputs).enumerate() {
            if !self.policy.matches(golden, observed) {
                num_mismatches += 1;
                if first_failure.is_none() {
                    first_failure = Some(i);
                }
            }
        }
        Ok(ValidationOutcome {
            passed: num_mismatches == 0,
            first_failure,
            num_mismatches,
            num_tests: self.inputs.len(),
        })
    }

    /// Serialize the suite to a self-contained byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"DNNIPSTE");
        let policy_tag: u8 = match self.policy {
            MatchPolicy::ArgMax => 0,
            MatchPolicy::OutputTolerance(_) => 1,
        };
        out.push(policy_tag);
        let tol = match self.policy {
            MatchPolicy::ArgMax => 0.0f32,
            MatchPolicy::OutputTolerance(t) => t,
        };
        out.extend_from_slice(&tol.to_le_bytes());
        out.extend_from_slice(&(self.inputs.len() as u32).to_le_bytes());
        for (input, golden) in self.inputs.iter().zip(&self.golden_outputs) {
            write_tensor(&mut out, input);
            write_tensor(&mut out, golden);
        }
        out
    }

    /// Deserialize a suite written by [`FunctionalTestSuite::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSuite`] for truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(CoreError::InvalidSuite {
                    reason: format!("unexpected end of stream at byte {pos:?}"),
                });
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 8)? != b"DNNIPSTE" {
            return Err(CoreError::InvalidSuite {
                reason: "bad magic".to_string(),
            });
        }
        let policy_tag = take(&mut pos, 1)?[0];
        let tol_bytes = take(&mut pos, 4)?;
        let tol = f32::from_le_bytes([tol_bytes[0], tol_bytes[1], tol_bytes[2], tol_bytes[3]]);
        let policy = match policy_tag {
            0 => MatchPolicy::ArgMax,
            1 => MatchPolicy::OutputTolerance(tol),
            other => {
                return Err(CoreError::InvalidSuite {
                    reason: format!("unknown policy tag {other}"),
                })
            }
        };
        let n_bytes = take(&mut pos, 4)?;
        let n = u32::from_le_bytes([n_bytes[0], n_bytes[1], n_bytes[2], n_bytes[3]]) as usize;
        let mut inputs = Vec::with_capacity(n);
        let mut golden_outputs = Vec::with_capacity(n);
        for _ in 0..n {
            inputs.push(read_tensor(bytes, &mut pos)?);
            golden_outputs.push(read_tensor(bytes, &mut pos)?);
        }
        if pos != bytes.len() {
            return Err(CoreError::InvalidSuite {
                reason: format!("{} trailing bytes", bytes.len() - pos),
            });
        }
        if inputs.is_empty() {
            return Err(CoreError::InvalidSuite {
                reason: "suite contains no tests".to_string(),
            });
        }
        Ok(Self {
            inputs,
            golden_outputs,
            policy,
        })
    }
}

fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.ndim() as u32).to_le_bytes());
    for &d in t.shape() {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    out.extend_from_slice(&(t.len() as u32).to_le_bytes());
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_tensor(bytes: &[u8], pos: &mut usize) -> Result<Tensor> {
    let mut take = |n: usize| -> Result<&[u8]> {
        if *pos + n > bytes.len() {
            return Err(CoreError::InvalidSuite {
                reason: "unexpected end of stream while reading a tensor".to_string(),
            });
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let read_u32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
    let ndim = read_u32(take(4)?);
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(read_u32(take(4)?));
    }
    let len = read_u32(take(4)?);
    let data_bytes = take(len * 4)?;
    let data: Vec<f32> = data_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Tensor::from_vec(data, &shape).map_err(|e| CoreError::InvalidSuite {
        reason: format!("malformed tensor: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnip_accel::ip::{AcceleratorIp, FloatIp};
    use dnnip_accel::quant::BitWidth;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(5, 12, 3, Activation::Relu, 77).unwrap()
    }

    fn tests_for(net: &Network, n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(net.input_shape(), |j| ((i * 5 + j) as f32 * 0.43).sin()))
            .collect()
    }

    #[test]
    fn unmodified_ip_passes_validation() {
        let network = net();
        let suite = FunctionalTestSuite::from_network(
            &network,
            tests_for(&network, 6),
            MatchPolicy::OutputTolerance(1e-4),
        )
        .unwrap();
        assert_eq!(suite.len(), 6);
        assert!(!suite.is_empty());
        let ip = FloatIp::new(network);
        let outcome = suite.validate(&ip).unwrap();
        assert!(outcome.passed);
        assert_eq!(outcome.num_mismatches, 0);
        assert_eq!(outcome.first_failure, None);
        assert_eq!(outcome.num_tests, 6);
    }

    #[test]
    fn tampered_ip_fails_validation() {
        let network = net();
        let suite = FunctionalTestSuite::from_network(
            &network,
            tests_for(&network, 6),
            MatchPolicy::OutputTolerance(1e-4),
        )
        .unwrap();
        let mut tampered = network.clone();
        let last = tampered.num_parameters() - 1;
        tampered.set_parameter(last, 25.0).unwrap();
        let outcome = suite.validate(&FloatIp::new(tampered)).unwrap();
        assert!(!outcome.passed);
        assert!(outcome.num_mismatches > 0);
        assert!(outcome.first_failure.is_some());
    }

    #[test]
    fn quantized_accelerator_needs_argmax_policy() {
        // With a strict float tolerance the (benign) quantization error itself
        // trips validation; the argmax policy accepts the quantized IP while still
        // catching real attacks (this is why the vendor picks the policy).
        let network = net();
        let inputs = tests_for(&network, 6);
        let strict = FunctionalTestSuite::from_network(
            &network,
            inputs.clone(),
            MatchPolicy::OutputTolerance(1e-6),
        )
        .unwrap();
        let argmax =
            FunctionalTestSuite::from_network(&network, inputs, MatchPolicy::ArgMax).unwrap();
        let accel = AcceleratorIp::from_network(&network, BitWidth::Int8);
        assert!(!strict.validate(&accel).unwrap().passed);
        assert!(argmax.validate(&accel).unwrap().passed);
    }

    #[test]
    fn wrong_interface_is_reported_as_error() {
        let network = net();
        let other = zoo::tiny_mlp(9, 4, 3, Activation::Relu, 1).unwrap();
        let suite = FunctionalTestSuite::from_network(
            &network,
            tests_for(&network, 2),
            MatchPolicy::ArgMax,
        )
        .unwrap();
        assert!(suite.validate(&FloatIp::new(other)).is_err());
    }

    #[test]
    fn empty_suite_is_rejected() {
        let network = net();
        assert!(FunctionalTestSuite::from_network(&network, vec![], MatchPolicy::ArgMax).is_err());
    }

    #[test]
    fn evaluator_built_suite_matches_from_network_and_caches_prefixes() {
        use crate::coverage::CoverageConfig;
        let network = net();
        let inputs = tests_for(&network, 6);
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let policy = MatchPolicy::OutputTolerance(1e-4);
        let via_eval =
            FunctionalTestSuite::from_evaluator(&evaluator, inputs.clone(), policy).unwrap();
        let via_net = FunctionalTestSuite::from_network(&network, inputs.clone(), policy).unwrap();
        assert_eq!(via_eval, via_net, "golden outputs must be bit-identical");
        // Re-building nested prefixes replays no inference: all cache hits.
        let misses_before = evaluator.output_cache_stats().misses;
        for n in [1usize, 3, 6] {
            let sub = FunctionalTestSuite::from_evaluator(&evaluator, inputs[..n].to_vec(), policy)
                .unwrap();
            assert_eq!(sub.golden_outputs, via_net.golden_outputs[..n].to_vec());
        }
        assert_eq!(
            evaluator.output_cache_stats().misses,
            misses_before,
            "prefix suites recomputed golden outputs"
        );
        // The prefix helper agrees with a freshly built sub-suite.
        let pre = via_eval.prefix(3).unwrap();
        assert_eq!(pre.len(), 3);
        assert_eq!(pre.golden_outputs, via_net.golden_outputs[..3].to_vec());
        assert!(pre.validate(&FloatIp::new(network.clone())).unwrap().passed);
        assert!(via_eval.prefix(0).is_err());
        assert!(via_eval.prefix(7).is_err());
        assert!(
            FunctionalTestSuite::from_evaluator(&evaluator, vec![], MatchPolicy::ArgMax).is_err()
        );
    }

    #[test]
    fn serialization_round_trip() {
        let network = net();
        let suite = FunctionalTestSuite::from_network(
            &network,
            tests_for(&network, 4),
            MatchPolicy::OutputTolerance(1e-3),
        )
        .unwrap();
        let bytes = suite.to_bytes();
        let restored = FunctionalTestSuite::from_bytes(&bytes).unwrap();
        assert_eq!(restored, suite);
        // Corruptions are rejected.
        assert!(FunctionalTestSuite::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(FunctionalTestSuite::from_bytes(&bad).is_err());
        let mut trailing = bytes;
        trailing.push(7);
        assert!(FunctionalTestSuite::from_bytes(&trailing).is_err());
        assert!(FunctionalTestSuite::from_bytes(&[]).is_err());
    }

    #[test]
    fn argmax_suite_round_trips_policy() {
        let network = net();
        let suite = FunctionalTestSuite::from_network(
            &network,
            tests_for(&network, 2),
            MatchPolicy::ArgMax,
        )
        .unwrap();
        let restored = FunctionalTestSuite::from_bytes(&suite.to_bytes()).unwrap();
        assert_eq!(restored.policy, MatchPolicy::ArgMax);
    }
}
