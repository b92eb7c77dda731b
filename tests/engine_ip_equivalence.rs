//! The black-box IPs and the detection harness run on the batched engine;
//! the per-sample reference `Network` executor is the oracle they are held to.
//!
//! Pinned on the scaled CIFAR model (the benchmark's fault-campaign model):
//!
//! 1. **Bounded drift, same verdicts.** Engine logits agree with the reference
//!    within [`REL_BOUND`] of the largest reference logit, with the same argmax,
//!    on the clean model and under seeded SBA and random perturbations. (Conv
//!    layers sum in a different order: the engine adds the bias after the
//!    im2col product and multiplies padded taps in. Dense models are
//!    bit-identical; their golden-output pins live next to the code.)
//! 2. **Batch composition never leaks.** `FloatIp` and `AcceleratorIp` return
//!    the same bits for a sample whichever samples share its batch.
//! 3. **The accelerator reads its memory on every inference.** A write
//!    through `memory_mut` shows up in the next `infer`.

use dnnip::dataset::objects::{synthetic_cifar, ObjectConfig};
use dnnip::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest allowed `max_i |engine_i - reference_i| / max_i |reference_i|`
/// (measured: 8.6e-7 over these probes and perturbations).
const REL_BOUND: f32 = 1e-5;

fn model() -> Network {
    zoo::cifar_model_scaled(5).unwrap()
}

fn images(n: usize, seed: u64) -> Vec<Tensor> {
    synthetic_cifar(&ObjectConfig::with_size(16), n, seed).inputs
}

fn relative_error(engine: &Tensor, reference: &Tensor) -> f32 {
    let scale = reference.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let diff = engine
        .data()
        .iter()
        .zip(reference.data())
        .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
    diff / scale.max(f32::MIN_POSITIVE)
}

#[test]
fn engine_tracks_the_reference_under_sba_and_random_perturbations() {
    let network = model();
    let probes = images(4, 11);
    let random = RandomPerturbation {
        num_params: network.num_parameters() / 100,
        std: 0.5,
    };
    let mut models = vec![network.clone()];
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sba = SingleBiasAttack::default()
            .generate(&network, &probes, &mut rng)
            .unwrap();
        models.push(sba.apply_to_network(&network).unwrap());
        let noise = random.generate(&network, &probes, &mut rng).unwrap();
        models.push(noise.apply_to_network(&network).unwrap());
    }
    let mut worst = 0.0f32;
    for (m, net) in models.into_iter().enumerate() {
        let ip = FloatIp::new(net.clone());
        let engine = ip.infer_batch(&probes).unwrap();
        for (p, (probe, logits)) in probes.iter().zip(&engine).enumerate() {
            let reference = net.forward_sample(probe).unwrap();
            let err = relative_error(logits, &reference);
            worst = worst.max(err);
            assert!(
                err <= REL_BOUND,
                "model {m} probe {p}: relative error {err}"
            );
            assert_eq!(
                logits.argmax().unwrap(),
                reference.argmax().unwrap(),
                "model {m} probe {p}: argmax flipped"
            );
        }
    }
    // The conv path really does round differently (otherwise the bound above
    // would be vacuous and the dense bit-identity pins would cover it).
    assert!(worst > 0.0);
}

#[test]
fn ip_outputs_do_not_depend_on_batch_composition() {
    let network = model();
    let xs = images(5, 23);
    let ips: [Box<dyn DnnIp>; 2] = [
        Box::new(FloatIp::new(network.clone())),
        Box::new(AcceleratorIp::from_network(&network, BitWidth::Int8)),
    ];
    for ip in &ips {
        let together = ip.infer_batch(&xs).unwrap();
        let mut reversed = ip
            .infer_batch(&xs.iter().rev().cloned().collect::<Vec<_>>())
            .unwrap();
        reversed.reverse();
        assert_eq!(together, reversed);
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(together[i], ip.infer(x).unwrap(), "sample {i} alone");
            let pair = ip.infer_batch(&[xs[(i + 2) % xs.len()].clone(), x.clone()]);
            assert_eq!(together[i], pair.unwrap()[1], "sample {i} in a pair");
        }
        assert!(ip.infer_batch(&[]).unwrap().is_empty());
    }
}

#[test]
fn accelerator_memory_writes_reach_the_next_inference() {
    let network = model();
    let xs = images(2, 31);
    let mut accel = AcceleratorIp::from_network(&network, BitWidth::Int8);
    let before = accel.infer_batch(&xs).unwrap();
    // The last parameter is the final layer's last bias: it moves that logit
    // of every input.
    let last = accel.memory().num_parameters() - 1;
    accel.memory_mut().write_parameter(last, 10.0).unwrap();
    let after = accel.infer_batch(&xs).unwrap();
    for (i, x) in xs.iter().enumerate() {
        assert_ne!(before[i], after[i], "sample {i} did not see the write");
        assert_eq!(after[i], accel.infer(x).unwrap());
    }
    let effective = FloatIp::new(accel.effective_network().unwrap());
    assert_eq!(after, effective.infer_batch(&xs).unwrap());
}
