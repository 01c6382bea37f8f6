//! The offered load: a seeded open-loop arrival plan.
//!
//! Open-loop means arrivals are scheduled by the *offered* rate, not by
//! completions: session `i` starts at its planned instant whether or not
//! earlier sessions have finished, so a server falling behind accumulates
//! in-flight sessions (and its tail latency shows it) instead of silently
//! throttling the benchmark — the coordinated-omission trap of
//! closed-loop drivers. See `docs/PERF.md`.
//!
//! The plan is a **pure function of its configuration**: two calls to
//! [`build_plan`] with the same [`PlanConfig`] produce byte-identical
//! schedules — arrival instants, workload kinds, per-session seeds — which
//! is what makes a load run reproducible and lets the mesh soak replay a
//! schedule under fault injection. Latencies still vary run to run; the
//! *offered* side never does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// What one planned session does on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Full reconciliation: estimator exchange + sketch/report rounds +
    /// final transfer, unpipelined.
    Full,
    /// Delta catch-up: the session carries a recent epoch and is served
    /// the changes since it (or falls back to a full reconciliation).
    Delta,
    /// Full reconciliation with adaptive pipelining (requests the
    /// server's whole grant).
    Pipelined,
    /// Delta catch-up followed by `Subscribe`: the session parks on the
    /// server as a live push subscriber until the harness drains it.
    Subscribe,
}

/// Relative workload weights; only ratios matter. A weight of zero
/// removes the kind from the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Weight of [`Kind::Full`].
    pub full: u32,
    /// Weight of [`Kind::Delta`].
    pub delta: u32,
    /// Weight of [`Kind::Pipelined`].
    pub pipelined: u32,
    /// Weight of [`Kind::Subscribe`].
    pub subscribe: u32,
}

impl Default for Mix {
    /// The mixed default: mostly cheap delta catch-ups and parked
    /// subscribers (the millions-of-users shape), a steady trickle of
    /// full reconciliations.
    fn default() -> Self {
        Mix {
            full: 10,
            delta: 30,
            pipelined: 10,
            subscribe: 50,
        }
    }
}

impl Mix {
    /// Parse a `full:delta:pipelined:subscribe` weight spec.
    pub fn parse(spec: &str) -> Option<Mix> {
        let parts: Vec<u32> = spec
            .split(':')
            .map(|p| p.trim().parse().ok())
            .collect::<Option<_>>()?;
        let [full, delta, pipelined, subscribe] = parts[..] else {
            return None;
        };
        if full + delta + pipelined + subscribe == 0 {
            return None;
        }
        Some(Mix {
            full,
            delta,
            pipelined,
            subscribe,
        })
    }

    fn total(&self) -> u64 {
        (self.full + self.delta + self.pipelined + self.subscribe) as u64
    }

    fn pick(&self, roll: u64) -> Kind {
        let mut roll = roll % self.total();
        for (weight, kind) in [
            (self.full, Kind::Full),
            (self.delta, Kind::Delta),
            (self.pipelined, Kind::Pipelined),
            (self.subscribe, Kind::Subscribe),
        ] {
            if roll < weight as u64 {
                return kind;
            }
            roll -= weight as u64;
        }
        unreachable!("roll reduced below the total weight")
    }
}

/// Everything [`build_plan`] needs; the plan is a pure function of this.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Number of sessions to schedule.
    pub sessions: usize,
    /// Offered arrival rate, sessions per second.
    pub rate: f64,
    /// Workload mix the kinds are drawn from.
    pub mix: Mix,
    /// Master seed: arrival jitter, kind draws, and per-session seeds all
    /// derive from it.
    pub seed: u64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            sessions: 1000,
            rate: 500.0,
            mix: Mix::default(),
            seed: 0x10AD_0001,
        }
    }
}

/// One planned session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the run's start at which the session begins.
    pub at: Duration,
    /// What the session does.
    pub kind: Kind,
    /// Per-session seed (hash seeds, set perturbation) — derived from the
    /// master seed, so the whole workload replays.
    pub seed: u64,
}

/// Build the open-loop schedule: `sessions` arrivals whose inter-arrival
/// gaps average `1/rate` with ±50% seeded uniform jitter, each assigned a
/// kind drawn from `mix` and a derived per-session seed.
pub fn build_plan(config: &PlanConfig) -> Vec<Arrival> {
    assert!(config.rate > 0.0, "offered rate must be positive");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mean_gap_ns = 1e9 / config.rate;
    let mut clock_ns = 0u64;
    (0..config.sessions)
        .map(|_| {
            // Uniform jitter in [0.5, 1.5) of the mean keeps the offered
            // rate exact in expectation while breaking lockstep.
            let jitter = 0.5 + rng.random::<f64>();
            clock_ns += (mean_gap_ns * jitter) as u64;
            Arrival {
                at: Duration::from_nanos(clock_ns),
                kind: config.mix.pick(rng.random::<u64>()),
                seed: rng.random::<u64>(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        let config = PlanConfig {
            sessions: 500,
            rate: 1000.0,
            mix: Mix::default(),
            seed: 42,
        };
        assert_eq!(build_plan(&config), build_plan(&config));
        let other = PlanConfig {
            seed: 43,
            ..config.clone()
        };
        assert_ne!(build_plan(&config), build_plan(&other));
    }

    #[test]
    fn offered_rate_is_respected_in_expectation() {
        let config = PlanConfig {
            sessions: 10_000,
            rate: 2000.0,
            mix: Mix::default(),
            seed: 7,
        };
        let plan = build_plan(&config);
        let span = plan.last().unwrap().at.as_secs_f64();
        let achieved = config.sessions as f64 / span;
        assert!(
            (achieved - config.rate).abs() / config.rate < 0.05,
            "offered {achieved:.0}/s vs configured {:.0}/s",
            config.rate
        );
        // Arrivals are strictly ordered — an open-loop scheduler can walk
        // the plan front to back.
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn mix_weights_shape_the_draw() {
        let config = PlanConfig {
            sessions: 8000,
            rate: 1000.0,
            mix: Mix {
                full: 1,
                delta: 0,
                pipelined: 0,
                subscribe: 3,
            },
            seed: 99,
        };
        let plan = build_plan(&config);
        assert!(plan.iter().all(|a| a.kind != Kind::Delta));
        let subs = plan.iter().filter(|a| a.kind == Kind::Subscribe).count();
        let frac = subs as f64 / plan.len() as f64;
        assert!(
            (frac - 0.75).abs() < 0.05,
            "subscribe fraction {frac:.3} far from 3/4"
        );
    }

    #[test]
    fn mix_parse_round_trips() {
        assert_eq!(
            Mix::parse("10:30:10:50"),
            Some(Mix::default()),
            "the default mix spells 10:30:10:50"
        );
        assert_eq!(Mix::parse("0:0:0:0"), None);
        assert_eq!(Mix::parse("1:2:3"), None);
        assert_eq!(Mix::parse("a:b:c:d"), None);
    }
}
