//! Coverage at deployed (int8) precision.
//!
//! The simulated accelerator runs the int8 round trip of a model's parameters
//! (`round_trip_network`, the same per-segment fitting `WeightMemory` and
//! `AcceleratorIp` apply). Coverage of that deployed model is measured by
//! registering the round-tripped network as a model of its own: its own
//! fingerprint keeps its cache entries apart from the float model's, so both
//! can share one workspace cache.
//!
//! Pins three contracts across MLP and CNN zoo models:
//!
//! 1. **The registered model is the accelerator's model.** Forward-only
//!    criteria on the registered round-tripped model agree bit-for-bit with
//!    a standalone analyzer over `round_trip_network` and with the per-sample
//!    reference.
//! 2. **Bounded drift.** Coverage fractions on the round-tripped model stay
//!    valid and close to the float model's on well-conditioned models.
//! 3. **No aliasing in a shared cache.** Float and int8 models registered in
//!    one workspace have distinct fingerprints; warm re-queries are cache hits
//!    that return each model's own sets.

use dnnip::accel::quant::round_trip_network;
use dnnip::core::criterion::builtin_criteria;
use dnnip::dataset::digits::{synthetic_mnist, DigitConfig};
use dnnip::nn::fingerprint::NetworkFingerprint;
use dnnip::prelude::*;

fn zoo_networks() -> Vec<(&'static str, Network)> {
    vec![
        (
            "tiny_mlp_relu",
            zoo::tiny_mlp(6, 14, 4, Activation::Relu, 5).unwrap(),
        ),
        (
            "tiny_mlp_tanh",
            zoo::tiny_mlp(6, 14, 4, Activation::Tanh, 5).unwrap(),
        ),
        (
            "tiny_cnn_relu",
            zoo::tiny_cnn(6, 10, Activation::Relu, 9).unwrap(),
        ),
    ]
}

fn seeded_inputs(net: &Network, n: usize, seed: u64) -> Vec<Tensor> {
    let shape = net.input_shape().to_vec();
    if shape.len() == 3 && shape[0] == 1 {
        synthetic_mnist(&DigitConfig::with_size(shape[1]), n, seed).inputs
    } else {
        (0..n)
            .map(|i| {
                Tensor::from_fn(&shape, |j| {
                    ((seed as usize + i * 131 + j * 7) as f32 * 0.23).sin()
                })
            })
            .collect()
    }
}

/// A workspace holding `net` and its int8 round trip as two models, plus the
/// round-tripped network and both fingerprints.
fn float_and_int8(
    name: &str,
    net: &Network,
) -> (Workspace, Network, NetworkFingerprint, NetworkFingerprint) {
    let rt = round_trip_network(net, BitWidth::Int8).unwrap();
    let ws = Workspace::new();
    let full = ws.register(name, net.clone(), CoverageConfig::default());
    let int8 = ws.register(
        format!("{name}-int8"),
        rt.clone(),
        CoverageConfig::default(),
    );
    (ws, rt, full, int8)
}

#[test]
fn quantized_forward_only_criteria_evaluate_the_round_tripped_network() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 8, 11);
        let (ws, rt, _, int8) = float_and_int8(name, &net);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            if !criterion.forward_only() {
                continue;
            }
            let id = criterion.id();
            let spec = CriterionSpec::Instance(criterion.clone());
            let got = ws
                .evaluator(int8, &spec)
                .unwrap()
                .activation_sets(&pool)
                .unwrap();
            let standalone =
                CoverageAnalyzer::with_criterion(&rt, CoverageConfig::default(), criterion.clone());
            let expected = standalone.activation_sets(&pool).unwrap();
            assert_eq!(got.len(), expected.len(), "{name}/{id}");
            for (i, (got, want)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(&got.to_bitset(), want, "{name}/{id} sample {i}");
                // Batched-vs-reference differential holds on the int8 model.
                assert_eq!(
                    &standalone.activation_set_reference(&pool[i]).unwrap(),
                    want,
                    "{name}/{id} reference, sample {i}"
                );
            }
        }
    }
}

#[test]
fn quantized_coverage_drift_is_bounded() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 12, 13);
        let (ws, _, full, int8) = float_and_int8(name, &net);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            if !criterion.forward_only() {
                continue;
            }
            let id = criterion.id();
            let spec = CriterionSpec::Instance(criterion.clone());
            let c_full = ws
                .evaluator(full, &spec)
                .unwrap()
                .coverage_of_set(&pool)
                .unwrap();
            let c_int8 = ws
                .evaluator(int8, &spec)
                .unwrap()
                .coverage_of_set(&pool)
                .unwrap();
            assert!((0.0..=1.0).contains(&c_int8), "{name}/{id}");
            // Int8 round trips move each parameter by at most half a step of
            // its segment; on these well-conditioned zoo models the covered
            // fraction cannot swing wildly.
            assert!(
                (c_full - c_int8).abs() <= 0.25,
                "{name}/{id}: float {c_full} vs int8 {c_int8}"
            );
        }
    }
}

#[test]
fn quantized_and_full_evaluators_share_a_cache_without_aliasing() {
    // Models on which int8 rounding must visibly change the sets.
    let must_differ = ["tiny_cnn_relu"];
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 6, 17);
        let (ws, _, full, int8) = float_and_int8(name, &net);
        assert_ne!(full, int8, "{name}: round trip kept the fingerprint");
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            if !criterion.forward_only() {
                continue;
            }
            let id = criterion.id();
            let spec = CriterionSpec::Instance(criterion.clone());
            let on_full = ws.evaluator(full, &spec).unwrap();
            let on_int8 = ws.evaluator(int8, &spec).unwrap();
            // Warm both models, then re-query: each must keep returning its
            // own sets even though both saw the same samples, and the
            // re-queries must be served from the shared cache.
            let a1 = on_full.activation_sets(&pool).unwrap();
            let b1 = on_int8.activation_sets(&pool).unwrap();
            let hits_before = ws.cache_stats().hits;
            let a2 = on_full.activation_sets(&pool).unwrap();
            let b2 = on_int8.activation_sets(&pool).unwrap();
            assert_eq!(a1, a2, "{name}/{id}: float model re-query");
            assert_eq!(b1, b2, "{name}/{id}: int8 model re-query");
            assert_eq!(
                ws.cache_stats().hits - hits_before,
                2 * pool.len() as u64,
                "{name}/{id}: re-queries were not served from the cache"
            );
            // On a real CNN the int8 sets are computed on a different model;
            // equality would mean the entries aliased or the round trip was a
            // no-op.
            if must_differ.contains(&name) {
                assert_ne!(a1, b1, "{name}/{id}: int8 sets alias the float sets");
            }
        }
    }
}
