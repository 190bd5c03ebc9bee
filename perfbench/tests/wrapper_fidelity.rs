//! The traced wrapper must measure the same program: it forwards every
//! `PermutationProblem` method, so a traced engine is bit-identical to an
//! untraced one on all six registry models.

use adaptive_search::problems::{self, ProblemInfo};
use adaptive_search::{Engine, PermutationProblem, SolveRequest, StepOutcome};
use perfbench::trace::{self, traced_key, Traced};

/// A mid-size instance parameter with known optima for each model.
fn size(info: &ProblemInfo) -> usize {
    *info
        .solvable_sizes
        .last()
        .expect("every model lists solvable sizes")
}

#[test]
fn traced_engine_replays_the_untraced_engine_on_every_registry_model() {
    let mut custom_resets = 0;
    for info in problems::registry() {
        let n = size(info);
        let config = (info.default_config)(n);
        let mut plain = Engine::new((info.build)(n), config.clone(), 11);
        let mut traced = Engine::new(Traced::new((info.build)(n)), config, 11);
        for step in 0..3000 {
            let outcome = plain.step();
            assert_eq!(outcome, traced.step(), "{} step {step}", info.key);
            assert_eq!(
                plain.problem().configuration(),
                traced.problem().configuration(),
                "{} step {step}",
                info.key
            );
            assert_eq!(plain.stats(), traced.stats(), "{} step {step}", info.key);
            if outcome == StepOutcome::Solved {
                break;
            }
        }
        let tally = traced.problem().tally();
        assert!(
            tally.probe_calls > 0 && tally.cost_calls > 0,
            "{}: {tally:?}",
            info.key
        );
        if plain.stats().custom_resets > 0 {
            assert_eq!(tally.reset_calls, plain.stats().resets, "{}", info.key);
        }
        custom_resets += plain.stats().custom_resets;
    }
    assert!(
        custom_resets > 0,
        "the Costas walk must exercise the forwarded custom reset"
    );
}

#[test]
fn every_method_forwards_to_the_wrapped_model() {
    for info in problems::registry() {
        let n = size(info);
        let mut plain = (info.build)(n);
        let mut traced = Traced::new((info.build)(n));
        let size = plain.size();
        assert_eq!(size, traced.size());
        let start: Vec<usize> = (1..=size).rev().collect();
        plain.set_configuration(&start);
        traced.set_configuration(&start);
        assert_eq!(plain.configuration(), traced.configuration());
        assert_eq!(plain.global_cost(), traced.global_cost());
        assert_eq!(plain.cached_errors(), traced.cached_errors());
        assert_eq!(
            plain.has_accelerated_probe(),
            traced.has_accelerated_probe()
        );
        assert_eq!(plain.name(), traced.name());
        assert_eq!(plain.is_solution(), traced.is_solution());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.variable_errors(&mut a);
        traced.variable_errors(&mut b);
        assert_eq!(a, b);
        for culprit in 0..size {
            plain.probe_partners(culprit, &mut a);
            traced.probe_partners(culprit, &mut b);
            assert_eq!(a, b, "{} probe {culprit}", info.key);
            plain.probe_partners_reference(culprit, &mut a);
            traced.probe_partners_reference(culprit, &mut b);
            assert_eq!(a, b, "{} reference probe {culprit}", info.key);
            let partner = (culprit + 1) % size;
            assert_eq!(
                plain.delta_for_swap(culprit, partner),
                traced.delta_for_swap(culprit, partner)
            );
            assert_eq!(
                plain.cost_after_swap(culprit, partner),
                traced.cost_after_swap(culprit, partner)
            );
        }
        plain.apply_swap(0, size - 1);
        traced.apply_swap(0, size - 1);
        assert_eq!(plain.configuration(), traced.configuration());
        let (mut rng_a, mut rng_b) = (xrand::default_rng(5), xrand::default_rng(5));
        assert_eq!(
            plain.custom_reset(1, &mut rng_a),
            traced.custom_reset(1, &mut rng_b),
            "{}",
            info.key
        );
        assert_eq!(
            plain.configuration(),
            traced.configuration(),
            "{}",
            info.key
        );
        let tally = traced.tally();
        assert_eq!(
            (tally.probe_calls, tally.apply_calls, tally.reset_calls),
            (size as u64, 1, 1)
        );
    }
}

#[test]
fn traced_registry_keys_solve_exactly_like_the_plain_keys() {
    trace::register();
    for info in problems::registry() {
        let n = size(info);
        let plain = SolveRequest::new(info.key, n, 3).run().expect("registered");
        let traced = SolveRequest::new(traced_key(info.key), n, 3)
            .run()
            .expect("registered");
        assert!(plain.is_solved(), "{}", info.key);
        assert_eq!(plain.solution, traced.solution, "{}", info.key);
        assert_eq!(plain.stats, traced.stats, "{}", info.key);
    }
    let tallies = trace::take_tallies();
    for info in problems::registry() {
        assert!(
            tallies.get(info.key).is_some_and(|t| t.probe_calls > 0),
            "{}",
            info.key
        );
    }
}
