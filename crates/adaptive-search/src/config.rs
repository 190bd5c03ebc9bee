//! Tuning parameters of the Adaptive Search engine.
//!
//! The names follow the paper: `RL` (reset limit — how many simultaneously frozen
//! variables trigger a reset), `RP` (reset percentage — which fraction of the
//! variables the generic reset re-randomises), the Tabu tenure (freeze duration), the
//! plateau-following probability of §III-B1 and the restart policy.  The values used
//! for the CAP experiments (§IV-B: `RL = 1`, `RP = 5 %`) are provided by
//! [`AsConfig::costas_defaults`].

/// When is the diversification (reset) operator triggered and how strong is it?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResetPolicy {
    /// `RL`: trigger a reset as soon as this many variables have been marked Tabu
    /// since the previous reset.
    pub reset_limit: usize,
    /// `RP`: fraction (0..=1) of the variables perturbed by the generic reset.
    pub reset_percentage: f64,
    /// Prefer the problem's custom reset procedure when it provides one (§IV-B).
    pub use_custom_reset: bool,
    /// When the custom reset fails to find a strictly better configuration, follow it
    /// with the generic `RP`-percentage random perturbation.
    ///
    /// The paper's description ("the best perturbation is selected") is deterministic;
    /// on its own that can trap the search in a short cycle of near-solutions (the
    /// structured perturbations of configuration A lead to B and vice versa).  The
    /// original C implementation avoids this through additional stochastic state; this
    /// flag is the explicit equivalent: after a failed custom reset the generic
    /// perturbation moves the walk off the cycle, at the cost of one random move the
    /// paper does not describe.  Disable it to reproduce the strictly literal reading
    /// of §IV-B.
    pub noise_on_failed_custom_reset: bool,
}

impl Default for ResetPolicy {
    fn default() -> Self {
        Self {
            reset_limit: 1,
            reset_percentage: 0.05,
            use_custom_reset: true,
            noise_on_failed_custom_reset: true,
        }
    }
}

/// Full restart policy (start again from a fresh random permutation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// Never restart; run a single walk until solved or the iteration budget is hit.
    #[default]
    Never,
    /// Restart every `iterations` iterations of the current walk.
    Every { iterations: u64 },
}

/// All knobs of the Adaptive Search engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AsConfig {
    /// Number of iterations a variable stays frozen after being marked Tabu.
    pub tabu_tenure: u64,
    /// Probability of following a plateau (equal-cost best move), §III-B1.
    pub plateau_probability: f64,
    /// Reset / diversification policy.
    pub reset: ResetPolicy,
    /// Restart policy.
    pub restart: RestartPolicy,
    /// Hard iteration budget for one [`crate::Engine::solve`] call
    /// (`u64::MAX` = effectively unbounded).
    pub max_iterations: u64,
    /// How often (in iterations) the engine evaluates an external stop condition
    /// (the analogue of the paper's non-blocking MPI termination probe every `c`
    /// iterations, §V-A).
    pub stop_check_interval: u64,
}

impl Default for AsConfig {
    fn default() -> Self {
        Self {
            tabu_tenure: 5,
            plateau_probability: 0.93,
            reset: ResetPolicy::default(),
            restart: RestartPolicy::Never,
            max_iterations: u64::MAX,
            stop_check_interval: 64,
        }
    }
}

impl AsConfig {
    /// The configuration used for the Costas Array Problem in the paper
    /// (`RL = 1`, `RP = 5 %`, custom reset enabled, no restarts).
    ///
    /// The instance size is accepted for future-proofing (some problems scale their
    /// tenure with `n`); the CAP settings are size-independent.
    pub fn costas_defaults(_n: usize) -> Self {
        Self::default()
    }

    /// Start building a configuration fluently.
    pub fn builder() -> AsConfigBuilder {
        AsConfigBuilder::default()
    }

    /// Validate parameter ranges; called by the engine constructor.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.plateau_probability) {
            return Err(format!(
                "plateau_probability must be in [0,1], got {}",
                self.plateau_probability
            ));
        }
        if !(0.0..=1.0).contains(&self.reset.reset_percentage) {
            return Err(format!(
                "reset_percentage must be in [0,1], got {}",
                self.reset.reset_percentage
            ));
        }
        if self.reset.reset_limit == 0 {
            return Err("reset_limit must be at least 1".to_string());
        }
        if self.stop_check_interval == 0 {
            return Err("stop_check_interval must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Fluent builder for [`AsConfig`].
#[derive(Debug, Clone, Default)]
pub struct AsConfigBuilder {
    config: AsConfig,
}

impl AsConfigBuilder {
    /// Set the Tabu tenure (freeze duration in iterations).
    pub fn tabu_tenure(mut self, tenure: u64) -> Self {
        self.config.tabu_tenure = tenure;
        self
    }

    /// Set the plateau-following probability.
    pub fn plateau_probability(mut self, p: f64) -> Self {
        self.config.plateau_probability = p;
        self
    }

    /// Set `RL`, the number of frozen variables that triggers a reset.
    pub fn reset_limit(mut self, rl: usize) -> Self {
        self.config.reset.reset_limit = rl;
        self
    }

    /// Set `RP`, the fraction of variables perturbed by the generic reset.
    pub fn reset_percentage(mut self, rp: f64) -> Self {
        self.config.reset.reset_percentage = rp;
        self
    }

    /// Enable or disable the problem-specific reset procedure.
    pub fn use_custom_reset(mut self, enabled: bool) -> Self {
        self.config.reset.use_custom_reset = enabled;
        self
    }

    /// Enable or disable the random kick applied when the custom reset fails to
    /// escape (see [`ResetPolicy::noise_on_failed_custom_reset`]).
    pub fn noise_on_failed_custom_reset(mut self, enabled: bool) -> Self {
        self.config.reset.noise_on_failed_custom_reset = enabled;
        self
    }

    /// Set the restart policy.
    pub fn restart(mut self, policy: RestartPolicy) -> Self {
        self.config.restart = policy;
        self
    }

    /// Set the iteration budget.
    pub fn max_iterations(mut self, max: u64) -> Self {
        self.config.max_iterations = max;
        self
    }

    /// Set how often external stop conditions are polled.
    pub fn stop_check_interval(mut self, every: u64) -> Self {
        self.config.stop_check_interval = every;
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (out-of-range probabilities, zero
    /// reset limit, …); use [`AsConfig::validate`] for a non-panicking check.
    pub fn build(self) -> AsConfig {
        if let Err(e) = self.config.validate() {
            panic!("invalid AsConfig: {e}");
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = AsConfig::costas_defaults(20);
        assert_eq!(c.reset.reset_limit, 1);
        assert!((c.reset.reset_percentage - 0.05).abs() < 1e-12);
        assert!(c.reset.use_custom_reset);
        assert_eq!(c.restart, RestartPolicy::Never);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_sets_all_fields() {
        let c = AsConfig::builder()
            .tabu_tenure(5)
            .plateau_probability(0.5)
            .reset_limit(3)
            .reset_percentage(0.25)
            .use_custom_reset(false)
            .restart(RestartPolicy::Every { iterations: 1000 })
            .max_iterations(10_000)
            .stop_check_interval(16)
            .build();
        assert_eq!(c.tabu_tenure, 5);
        assert_eq!(c.plateau_probability, 0.5);
        assert_eq!(c.reset.reset_limit, 3);
        assert_eq!(c.reset.reset_percentage, 0.25);
        assert!(!c.reset.use_custom_reset);
        assert_eq!(c.restart, RestartPolicy::Every { iterations: 1000 });
        assert_eq!(c.max_iterations, 10_000);
        assert_eq!(c.stop_check_interval, 16);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let c = AsConfig {
            plateau_probability: 1.5,
            ..AsConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = AsConfig::default();
        c.reset.reset_percentage = -0.1;
        assert!(c.validate().is_err());
        let mut c = AsConfig::default();
        c.reset.reset_limit = 0;
        assert!(c.validate().is_err());
        let c = AsConfig {
            stop_check_interval: 0,
            ..AsConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid AsConfig")]
    fn builder_panics_on_invalid() {
        AsConfig::builder().plateau_probability(2.0).build();
    }
}
