//! Chaos end-to-end: a seeded fault plan (panicking and stalling cost models)
//! plus explicit cancel traffic, driven through the service.
//!
//! The contract under test is the PR's headline invariant: **every admitted
//! request gets exactly one typed response** — `"ok"`/`"solved"` for healthy
//! models, `"failed"`/`"worker-panicked"` for models the plan kills,
//! `"ok"`/`"cancelled"` for requests cancelled mid-flight — and the whole
//! classification replays identically under the same seeds, because the fault
//! plan is a pure function of each request's initial configuration.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Once;
use std::time::Duration;

use adaptive_search::fault::{self, Fault, FaultPlan};
use adaptive_search::{AsConfig, CostasProblem, Engine, PermutationProblem};
use runtime_stats::json::Json;
use solverd::{Service, ServiceConfig};

/// One plan per test binary (the registry hook is process-global).  Tight op
/// window: a triggered fault always fires within the first ~50 cost
/// evaluations, long before an order-12 instance could solve — so the
/// per-request prediction below is exact.
const PLAN: FaultPlan = FaultPlan {
    seed: 0xC1A0_5E2E,
    panic_per_mille: 300,
    stall_per_mille: 250,
    stall_ms: 120,
    min_op: 1,
    op_spread: 48,
};

const N: usize = 12;

static ARM: Once = Once::new();

fn arm() {
    ARM.call_once(|| {
        fault::ensure_chaos_registered();
        fault::install_plan(PLAN);
    });
}

/// Predict the plan's verdict for a chaos request with this seed, by
/// rebuilding a *bare* engine the way the service will (same model, same
/// default config, same seed) and hashing its initial configuration.
fn predicted_fault(seed: u64) -> Fault {
    let engine = Engine::new(CostasProblem::new(N), AsConfig::default(), seed);
    PLAN.fault_for(engine.problem().configuration())
}

/// Deterministically pick seeds covering all three fault classes.
fn class_seeds() -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut healthy, mut panics, mut stalls) = (Vec::new(), Vec::new(), Vec::new());
    for seed in 0..500u64 {
        match predicted_fault(seed) {
            Fault::None if healthy.len() < 8 => healthy.push(seed),
            Fault::PanicAt { .. } if panics.len() < 4 => panics.push(seed),
            Fault::StallAt { .. } if stalls.len() < 4 => stalls.push(seed),
            _ => {}
        }
        if healthy.len() == 8 && panics.len() == 4 && stalls.len() == 4 {
            return (healthy, panics, stalls);
        }
    }
    panic!("seed scan found too few of some fault class — implausible plan");
}

/// Run one full storm and return `id → (status, termination-or-reason)`.
fn run_storm() -> HashMap<String, (String, String)> {
    arm();
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        fanout_walks: 1,
        ..ServiceConfig::default()
    });
    let (tx, rx) = mpsc::channel::<String>();
    let (healthy, panics, stalls) = class_seeds();

    // Three cancel victims first: unbounded hard instances that can only end
    // by cancellation.  They pin both workers, so the chaos batch queues
    // behind them — cancels must free the pool (two in flight, one queued).
    for k in 0..3 {
        let line = format!(
            r#"{{"id":"victim{k}","problem":"costas","n":22,"budget":18446744073709551615,"seed":{k}}}"#
        );
        assert!(service.submit(&line, &tx), "victim {k} admitted");
    }
    // The chaos batch: every seed's fate is already decided by the plan.
    let mut expected = HashMap::new();
    for (class, seeds) in [("ok", &healthy), ("failed", &panics), ("ok", &stalls)] {
        for &seed in seeds.iter() {
            let id = format!("chaos{seed}");
            let line = format!(
                r#"{{"id":"{id}","problem":"{}","n":{N},"seed":{seed},"budget":18446744073709551615}}"#,
                fault::CHAOS_PROBLEM
            );
            assert!(service.submit(&line, &tx), "{id} admitted");
            expected.insert(id, class);
        }
    }
    // Give the victims a beat to be provably in flight, then cancel them.
    std::thread::sleep(Duration::from_millis(200));
    for k in 0..3 {
        assert!(!service.submit(&format!(r#"{{"cancel":"victim{k}"}}"#), &tx));
    }

    drop(tx);
    drop(service); // graceful: every admitted request is answered first

    let mut classified = HashMap::new();
    let mut acks = 0usize;
    for line in rx {
        let doc = Json::parse(&line).expect("every response line is valid JSON");
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .expect("every response carries its id")
            .to_string();
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .expect("typed status")
            .to_string();
        if status == "cancel-ack" {
            assert_eq!(doc.get("found").and_then(Json::as_bool), Some(true));
            acks += 1;
            continue;
        }
        let detail = match status.as_str() {
            "ok" => doc
                .get("termination")
                .and_then(Json::as_str)
                .expect("ok lines carry a termination")
                .to_string(),
            "failed" => doc
                .get("reason")
                .and_then(Json::as_str)
                .expect("failed lines carry a reason")
                .to_string(),
            other => panic!("unexpected status {other:?} in {line}"),
        };
        let duplicate = classified.insert(id.clone(), (status, detail));
        assert!(
            duplicate.is_none(),
            "{id}: exactly one response per request"
        );
    }
    assert_eq!(acks, 3, "every cancel message is acknowledged");

    // Accounting: 3 victims + 16 chaos requests, one answer each.
    assert_eq!(classified.len(), 3 + expected.len());
    for k in 0..3 {
        let (status, termination) = &classified[&format!("victim{k}")];
        assert_eq!(status, "ok", "victim {k} answers");
        assert_eq!(termination, "cancelled", "victim {k} was cancelled");
    }
    for (id, class) in &expected {
        let (status, detail) = &classified[id];
        assert_eq!(status.as_str(), *class, "{id}: plan-predicted class");
        match *class {
            "failed" => assert_eq!(detail, "worker-panicked", "{id}"),
            _ => assert_eq!(detail, "solved", "{id}: healthy and stalled solve"),
        }
    }
    classified
}

#[test]
fn seeded_chaos_storm_answers_every_request_and_replays_identically() {
    let first = run_storm();

    // Plan-level counts: panics and cancellations match the plan exactly.
    let failed = first.values().filter(|(s, _)| s == "failed").count();
    let cancelled = first.values().filter(|(_, t)| t == "cancelled").count();
    assert_eq!(failed, 4, "worker-panicked count matches the plan");
    assert_eq!(cancelled, 3, "cancelled count matches the cancels sent");

    // Same seeds, fresh service: identical classification for every id.
    let second = run_storm();
    assert_eq!(first, second, "the storm classifies identically on replay");
}
