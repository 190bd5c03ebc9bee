//! Walk specification: what every independent walk of a multi-walk job runs.

use adaptive_search::problems::{self, DynProblem};
use adaptive_search::{
    AsConfig, CostasModelConfig, CostasProblem, Engine, RequestError, SolveRequest,
};
use xrand::ChaoticSeeder;

/// The instance and configuration shared by every walk of a multi-walk job.
///
/// Walks are dispatched through the workload registry
/// ([`adaptive_search::problems`]): the spec names a registered problem by key and
/// carries the instance parameter, so the same runners drive the Costas Array
/// Problem, N-Queens, Langford, number partitioning, … without a per-model code
/// path.  The Costas key additionally honours the [`CostasModelConfig`] override
/// (basic vs. optimised cost model), which the ablation benches rely on.
///
/// Each walk differs only in its random seed, which is derived from the job's master
/// seed through the chaotic-map seeder (paper §III-B3) so that ranks 0, 1, 2, … get
/// decorrelated streams.
#[derive(Debug, Clone)]
pub struct WalkSpec {
    /// Registry key of the problem every walk solves (see
    /// [`adaptive_search::problems::registry`]).
    pub problem: &'static str,
    /// Instance parameter (per-model semantics: order, board side, pair count, …).
    pub n: usize,
    /// Cost-model configuration, applied when `problem == "costas"` (other models
    /// have no model options).
    pub model: CostasModelConfig,
    /// Engine configuration (the problem's registry default by default).
    pub config: AsConfig,
}

impl WalkSpec {
    /// The paper's configuration for a CAP instance of order `n`.
    pub fn costas(n: usize) -> Self {
        Self {
            problem: "costas",
            n,
            model: CostasModelConfig::optimized(),
            config: AsConfig::default(),
        }
    }

    /// A spec for any registered workload, with the model's default engine
    /// configuration from the registry.
    ///
    /// An unknown key is a typed [`RequestError`], not a panic, so callers that
    /// take keys from untrusted input (the `solverd` service, env knobs) can
    /// turn it into a structured reject.
    pub fn for_problem(key: &str, n: usize) -> Result<Self, RequestError> {
        let info = problems::find(key).ok_or_else(|| RequestError::UnknownProblem {
            key: key.to_string(),
        })?;
        Ok(Self {
            problem: info.key,
            n,
            model: CostasModelConfig::optimized(),
            config: (info.default_config)(n),
        })
    }

    /// A spec for one walk of a fan-out over a [`SolveRequest`]: the request's
    /// problem/instance with its budget as the per-walk iteration limit.
    ///
    /// Warm starts are not applied here — each walk starts from its own seeded
    /// random configuration (the request's `seed` becomes the fan-out master
    /// seed via [`WalkSpec::build_engine`]); a caller that wants the warm start
    /// raced too injects it into one rank's engine explicitly.
    pub fn from_request(request: &SolveRequest) -> Result<Self, RequestError> {
        let mut spec = Self::for_problem(&request.problem, request.n)?;
        spec.config.max_iterations = request.budget;
        Ok(spec)
    }

    /// Override the cost model (meaningful for the `"costas"` key only).
    pub fn with_model(mut self, model: CostasModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Override the engine configuration.
    pub fn with_config(mut self, config: AsConfig) -> Self {
        self.config = config;
        self
    }

    /// How often walks poll for termination (the paper's `c`).
    pub fn check_interval(&self) -> u64 {
        self.config.stop_check_interval
    }

    /// Build the chaotic seeder all walks of a job share.
    pub fn seeder(&self, master_seed: u64) -> ChaoticSeeder {
        ChaoticSeeder::new(master_seed)
    }

    /// Build one problem instance for this spec (registry dispatch; the Costas key
    /// honours the model override).
    pub fn build_problem(&self) -> DynProblem {
        if self.problem == "costas" {
            Box::new(CostasProblem::with_config(self.n, self.model))
        } else {
            problems::build(self.problem, self.n).expect("spec holds a registered key")
        }
    }

    /// Build the engine for a given rank of a job seeded with `master_seed`.
    pub fn build_engine(&self, master_seed: u64, rank: usize) -> Engine<DynProblem> {
        let seed = self.seeder(master_seed).seed_for_rank(rank as u64);
        Engine::new(self.build_problem(), self.config.clone(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptive_search::PermutationProblem;

    #[test]
    fn spec_builds_engines_with_decorrelated_seeds() {
        let spec = WalkSpec::costas(10);
        let e0 = spec.build_engine(7, 0);
        let e1 = spec.build_engine(7, 1);
        // Different ranks start from different random configurations (overwhelmingly).
        assert_ne!(e0.problem().configuration(), e1.problem().configuration());
        // Same rank and master seed → identical start.
        let e0b = spec.build_engine(7, 0);
        assert_eq!(e0.problem().configuration(), e0b.problem().configuration());
    }

    #[test]
    fn spec_builders_apply_overrides() {
        let spec = WalkSpec::costas(9)
            .with_model(CostasModelConfig::basic())
            .with_config(AsConfig::builder().stop_check_interval(17).build());
        assert_eq!(spec.check_interval(), 17);
        let engine = spec.build_engine(1, 0);
        assert_eq!(engine.problem().size(), 9);
        assert_eq!(engine.problem().name(), "costas");
    }

    #[test]
    fn spec_dispatches_any_registered_problem_by_key() {
        for info in adaptive_search::problems::registry() {
            let n = info.test_sizes[info.test_sizes.len() - 1];
            let spec = WalkSpec::for_problem(info.key, n).expect("registered key");
            assert_eq!(spec.problem, info.key);
            let engine = spec.build_engine(3, 0);
            assert_eq!(engine.problem().name(), info.key);
            // the registry default config rode along
            assert_eq!(spec.config, (info.default_config)(n));
        }
    }

    #[test]
    fn unknown_keys_are_typed_errors() {
        let err = WalkSpec::for_problem("no-such-model", 5).expect_err("unknown key");
        assert_eq!(
            err,
            RequestError::UnknownProblem {
                key: "no-such-model".into()
            }
        );
        let request = SolveRequest::new("also-missing", 5, 1);
        assert!(WalkSpec::from_request(&request).is_err());
    }

    #[test]
    fn from_request_carries_budget_into_the_walk_config() {
        let request = SolveRequest::new("costas", 12, 7).with_budget(12_345);
        let spec = WalkSpec::from_request(&request).expect("registered key");
        assert_eq!(spec.problem, "costas");
        assert_eq!(spec.n, 12);
        assert_eq!(spec.config.max_iterations, 12_345);
        // everything else is the registry default
        let default = (adaptive_search::problems::find("costas")
            .unwrap()
            .default_config)(12);
        assert_eq!(spec.config.tabu_tenure, default.tabu_tenure);
    }

    #[test]
    fn seeder_is_shared_across_ranks() {
        let spec = WalkSpec::costas(8);
        let s = spec.seeder(5);
        assert_eq!(s.seed_for_rank(3), spec.seeder(5).seed_for_rank(3));
    }
}
