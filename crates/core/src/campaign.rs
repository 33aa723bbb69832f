//! Ready-made fuzzing campaigns matching the paper's evaluation setup.
//!
//! A *campaign* bundles the network scenario (§3.1/§4: 12 Mbps bottleneck,
//! 20 ms propagation delay, SACK + delayed ACKs, 1 s min-RTO), a CCA under
//! test, a scoring configuration and the GA parameters, and runs any
//! [`FuzzTarget`] genome type end to end. The figure binaries, the
//! examples and the integration tests all go through this module so the
//! experiment definitions live in exactly one place.

use crate::checkpoint::{CampaignControl, ControlledRun};
use crate::evaluate::SimEvaluator;
use crate::fuzzer::{FuzzResult, Fuzzer, FuzzerSnapshot, GaParams, RunControl};
use crate::scenario::QdiscChoice;
use crate::scoring::ScoringConfig;
use crate::target::FuzzTarget;
use crate::trace_gen::packets_for_rate;
use ccfuzz_cca::CcaKind;
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::queue::QueueCapacity;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_obs::{HuntTelemetry, Phase};
use serde::{Deserialize, Serialize};

/// The paper's bottleneck rate (12 Mbps).
pub const PAPER_LINK_RATE_BPS: u64 = 12_000_000;
/// The paper's one-way propagation delay (20 ms).
pub const PAPER_PROP_DELAY_MS: u64 = 20;
/// The paper's aggregation threshold for DIST_PACKETS (50 ms).
pub const PAPER_K_AGG_MS: u64 = 50;

/// Which fuzzing mode a campaign uses: the paper's two single-flow modes
/// (§3.1) plus the multi-flow fairness mode built on top of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FuzzMode {
    /// Evolve bottleneck service curves (fixed cross traffic = none).
    Link,
    /// Evolve cross-traffic patterns (fixed-rate bottleneck).
    Traffic,
    /// Evolve multi-flow scenarios (flow mix, schedules, optional cross
    /// traffic) hunting for unfairness/starvation between concurrent CCAs.
    Fairness,
    /// Evolve gateway queue disciplines (RED/CoDel parameters, ECN on/off)
    /// plus cross traffic, hunting for AQM configurations that break a CCA.
    Aqm,
    /// Evolve multi-hop topologies (per-hop rate/delay/buffer/qdisc,
    /// per-flow parking-lot paths) plus cross traffic, hunting for hop
    /// chains that break flows.
    Topology,
    /// Evolve dynamic-arrival workloads (arrival process, heavy-tailed flow
    /// sizes, background elephant mix) hunting for flow-churn patterns that
    /// inflate the tail latency of short flows.
    Workload,
}

impl FuzzMode {
    /// Short name used in reports, corpus buckets and finding ids.
    pub fn name(&self) -> &'static str {
        match self {
            FuzzMode::Link => "link",
            FuzzMode::Traffic => "traffic",
            FuzzMode::Fairness => "fairness",
            FuzzMode::Aqm => "aqm",
            FuzzMode::Topology => "topology",
            FuzzMode::Workload => "workload",
        }
    }

    /// Every mode, in CLI/documentation order.
    pub const ALL: [FuzzMode; 6] = [
        FuzzMode::Traffic,
        FuzzMode::Link,
        FuzzMode::Fairness,
        FuzzMode::Aqm,
        FuzzMode::Topology,
        FuzzMode::Workload,
    ];

    /// Parses a CLI name as produced by [`FuzzMode::name`].
    pub fn from_name(name: &str) -> Option<FuzzMode> {
        FuzzMode::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// A complete campaign description.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Fuzzing mode.
    pub mode: FuzzMode,
    /// Algorithm under test (the primary flow's algorithm in fairness mode).
    pub cca: CcaKind,
    /// Scenario duration per simulation.
    pub duration: SimDuration,
    /// Scoring configuration.
    pub scoring: ScoringConfig,
    /// Genetic-algorithm parameters.
    pub ga: GaParams,
    /// Base simulation settings.
    pub sim: SimConfig,
    /// Bottleneck rate (fixed rate in traffic mode, average rate in link mode).
    pub link_rate_bps: u64,
    /// Cross-traffic packet budget for traffic genomes.
    pub traffic_max_packets: usize,
    /// Initial per-flow algorithms for fairness mode (empty otherwise).
    /// Flow 0 always equals `cca`.
    pub flow_ccas: Vec<CcaKind>,
    /// Maximum concurrent flows fairness mutation may grow to.
    pub max_flows: usize,
    /// Disciplines AQM-mode genomes may draw from (ignored elsewhere).
    pub qdisc_choice: QdiscChoice,
    /// Initial hop count of topology-mode genomes (ignored elsewhere).
    pub topology_hops: usize,
}

impl Campaign {
    /// Builds the paper's standard scenario for a given mode, CCA, duration
    /// and GA parameters, with the low-throughput objective.
    pub fn paper_standard(
        mode: FuzzMode,
        cca: CcaKind,
        duration: SimDuration,
        ga: GaParams,
    ) -> Self {
        let sim = paper_sim_base(duration);
        Campaign {
            mode,
            cca,
            duration,
            scoring: ScoringConfig::low_throughput_default(PAPER_LINK_RATE_BPS as f64),
            ga,
            traffic_max_packets: packets_for_rate(PAPER_LINK_RATE_BPS, sim.mss, duration),
            sim,
            link_rate_bps: PAPER_LINK_RATE_BPS,
            flow_ccas: vec![cca],
            max_flows: 1,
            qdisc_choice: QdiscChoice::Any,
            topology_hops: 1,
        }
    }

    /// The fairness campaign preset: the paper's standard scenario (12 Mbps
    /// bottleneck, 20 ms propagation delay) shared by the given flows, with
    /// the unfairness objective. The GA evolves the flow schedule, the flow
    /// mix (drawing replacements from `flow_ccas`) and an optional
    /// cross-traffic helper capped at half the link's packet budget.
    pub fn paper_fairness(flow_ccas: Vec<CcaKind>, duration: SimDuration, ga: GaParams) -> Self {
        assert!(
            flow_ccas.len() >= crate::scenario::MIN_FAIRNESS_FLOWS,
            "fairness campaigns need at least two flows"
        );
        let sim = paper_sim_base(duration);
        let max_flows = flow_ccas.len().max(4);
        Campaign {
            mode: FuzzMode::Fairness,
            cca: flow_ccas[0],
            duration,
            scoring: ScoringConfig::fairness_default(PAPER_LINK_RATE_BPS as f64),
            ga,
            traffic_max_packets: packets_for_rate(PAPER_LINK_RATE_BPS, sim.mss, duration) / 2,
            sim,
            link_rate_bps: PAPER_LINK_RATE_BPS,
            flow_ccas,
            max_flows,
            qdisc_choice: QdiscChoice::Any,
            topology_hops: 1,
        }
    }

    /// The AQM campaign preset: the paper's standard single-flow scenario,
    /// but the GA additionally evolves the gateway queue discipline
    /// (RED/CoDel parameters and ECN negotiation) alongside the cross
    /// traffic, hunting for AQM configurations that break `cca`. `choice`
    /// restricts the disciplines explored (the CLI's `--qdisc` flag).
    pub fn paper_aqm(
        cca: CcaKind,
        duration: SimDuration,
        ga: GaParams,
        choice: QdiscChoice,
    ) -> Self {
        let sim = paper_sim_base(duration);
        Campaign {
            mode: FuzzMode::Aqm,
            cca,
            duration,
            scoring: ScoringConfig::aqm_default(PAPER_LINK_RATE_BPS as f64),
            ga,
            traffic_max_packets: packets_for_rate(PAPER_LINK_RATE_BPS, sim.mss, duration) / 2,
            sim,
            link_rate_bps: PAPER_LINK_RATE_BPS,
            flow_ccas: vec![cca],
            max_flows: 1,
            qdisc_choice: choice,
            topology_hops: 1,
        }
    }

    /// The topology campaign preset: the GA evolves a chain of `hops`
    /// bottleneck hops (rates bracketing the paper's 12 Mbps, per-hop
    /// delays/buffers/qdiscs), parking-lot competitor flows drawn from
    /// `cca` + Reno, and a cross-traffic helper at the head of the chain,
    /// hunting for hop chains that break `cca`.
    pub fn paper_topology(cca: CcaKind, hops: usize, duration: SimDuration, ga: GaParams) -> Self {
        let sim = paper_sim_base(duration);
        Campaign {
            mode: FuzzMode::Topology,
            cca,
            duration,
            scoring: ScoringConfig::topology_default(PAPER_LINK_RATE_BPS as f64),
            ga,
            traffic_max_packets: packets_for_rate(PAPER_LINK_RATE_BPS, sim.mss, duration) / 2,
            sim,
            link_rate_bps: PAPER_LINK_RATE_BPS,
            flow_ccas: vec![cca, CcaKind::Reno],
            max_flows: 3,
            qdisc_choice: QdiscChoice::Any,
            topology_hops: hops.max(1),
        }
    }

    /// The workload campaign preset: the paper's standard bottleneck, but
    /// the GA evolves a dynamic-arrival workload — Poisson or ON/OFF flow
    /// arrivals with bounded-Pareto sizes, a concurrency cap, and a
    /// background elephant mix drawn from `cca_pool` — hunting for churn
    /// patterns that inflate the p99 flow-completion time of short flows
    /// through `cca`'s elephants. `max_elephants` bounds the background mix
    /// (stored in the campaign's `max_flows` field).
    pub fn paper_workload(
        cca: CcaKind,
        cca_pool: Vec<CcaKind>,
        max_elephants: usize,
        duration: SimDuration,
        ga: GaParams,
    ) -> Self {
        assert!(!cca_pool.is_empty(), "workload campaigns need a CCA pool");
        let sim = paper_sim_base(duration);
        Campaign {
            mode: FuzzMode::Workload,
            cca,
            duration,
            scoring: ScoringConfig::workload_default(PAPER_LINK_RATE_BPS as f64),
            ga,
            traffic_max_packets: 0,
            sim,
            link_rate_bps: PAPER_LINK_RATE_BPS,
            flow_ccas: cca_pool,
            max_flows: max_elephants.max(crate::workload::MIN_ELEPHANTS),
            qdisc_choice: QdiscChoice::Any,
            topology_hops: 1,
        }
    }

    /// Same scenario but hunting for high queuing delay (§4.3 / Figure 4e).
    pub fn paper_high_delay(
        mode: FuzzMode,
        cca: CcaKind,
        duration: SimDuration,
        ga: GaParams,
    ) -> Self {
        let mut c = Self::paper_standard(mode, cca, duration, ga);
        c.scoring = ScoringConfig::high_delay_default(PAPER_LINK_RATE_BPS as f64);
        c
    }

    /// The evaluator this campaign uses.
    pub fn evaluator(&self) -> SimEvaluator {
        SimEvaluator::new(self.sim.clone(), self.cca, self.scoring, self.link_rate_bps)
    }

    /// Runs this campaign over genome type `G`. Panics if `G` does not
    /// serve the campaign's mode (see [`FuzzTarget::MODES`]).
    pub fn run<G: FuzzTarget>(&self) -> FuzzResult<G> {
        self.run_with(None)
    }

    /// [`Campaign::run`] with an optional telemetry observer. The observer
    /// is passive — population evolution and results are identical with or
    /// without it.
    pub fn run_with<G: FuzzTarget>(&self, obs: Option<&HuntTelemetry>) -> FuzzResult<G> {
        self.run_controlled(obs, CampaignControl::default())
            .expect("uncontrolled campaign runs cannot fail to start")
            .result
    }

    /// [`Campaign::run_with`] under a [`CampaignControl`] plane: shutdown
    /// flag, periodic checkpoints, panic budget and resume.
    pub fn run_controlled<G: FuzzTarget>(
        &self,
        obs: Option<&HuntTelemetry>,
        mut ctl: CampaignControl<'_>,
    ) -> Result<ControlledRun<G>, String> {
        let evaluator = self.evaluator();
        let resume = ctl.resume.take().map(G::unwrap_snapshot).transpose()?;
        let fuzzer = self.build_fuzzer(&evaluator, resume, obs)?;
        Ok(drive(fuzzer, &mut ctl))
    }

    /// Builds this campaign's fuzzer — fresh from the campaign seed, or
    /// restored from `resume` — with the target's annealing hook attached.
    /// Single-process runs and every shard worker of a distributed run go
    /// through this one constructor, so their fuzzers are byte-identical by
    /// construction. Panics if `G` does not serve the campaign's mode.
    pub fn build_fuzzer<'e, G: FuzzTarget>(
        &self,
        evaluator: &'e SimEvaluator,
        resume: Option<FuzzerSnapshot<G>>,
        obs: Option<&'e HuntTelemetry>,
    ) -> Result<Fuzzer<'e, G, SimEvaluator>, String> {
        if !G::MODES.contains(&self.mode) {
            let not_in: Vec<String> = G::MODES
                .iter()
                .map(|m| format!("not in {} mode", m.name()))
                .collect();
            panic!("campaign is {}", not_in.join(" and "));
        }
        let mut fuzzer = match resume {
            // A checkpoint only resumes the campaign it was taken from.
            Some(snapshot) if snapshot.params != self.ga => {
                return Err(
                    "checkpoint GA parameters do not match the campaign's configuration".into(),
                );
            }
            Some(snapshot) => Fuzzer::restore(evaluator, snapshot)?,
            None => {
                let _timer = obs.map(|o| o.profiler.scope(Phase::Generate));
                Fuzzer::new(self.ga, evaluator, |rng: &mut SimRng| G::seed(self, rng))
            }
        };
        if let Some(anneal) = G::annealer(self) {
            fuzzer = fuzzer.with_annealing(anneal);
        }
        if let Some(obs) = obs {
            fuzzer = fuzzer.with_observer(obs);
        }
        Ok(fuzzer)
    }
}

/// Runs a prepared fuzzer under the campaign control plane, wrapping each
/// checkpoint snapshot into the mode-erased payload.
fn drive<G: FuzzTarget>(
    mut fuzzer: Fuzzer<'_, G, SimEvaluator>,
    ctl: &mut CampaignControl<'_>,
) -> ControlledRun<G> {
    let (result, stop) = match ctl.on_checkpoint.as_deref_mut() {
        Some(sink) => {
            let mut forward = |snapshot: FuzzerSnapshot<G>| sink(G::wrap_snapshot(snapshot));
            fuzzer.run_controlled(&mut RunControl {
                shutdown: ctl.shutdown,
                checkpoint_every: ctl.checkpoint_every,
                on_checkpoint: Some(&mut forward),
                panic_budget: ctl.panic_budget,
            })
        }
        None => fuzzer.run_controlled(&mut RunControl {
            shutdown: ctl.shutdown,
            checkpoint_every: ctl.checkpoint_every,
            on_checkpoint: None,
            panic_budget: ctl.panic_budget,
        }),
    };
    ControlledRun {
        result,
        stop,
        final_snapshot: fuzzer.snapshot(),
    }
}

/// The paper's base simulation settings (§4) for a scenario of `duration`:
/// 12 Mbps bottleneck, 20 ms propagation delay, SACK and delayed ACKs
/// enabled, 1 s minimum RTO, and a bottleneck queue of roughly 2.5 BDP.
pub fn paper_sim_base(duration: SimDuration) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.duration = duration;
    cfg.cross_traffic = ccfuzz_netsim::trace::TrafficTrace::empty(duration);
    cfg.propagation_delay = SimDuration::from_millis(PAPER_PROP_DELAY_MS);
    cfg.queue_capacity = QueueCapacity::Packets(100);
    cfg.min_rto = SimDuration::from_secs(1);
    cfg.sack_enabled = true;
    cfg.delayed_ack = true;
    cfg.flow_start = SimTime::ZERO;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, LinkGenome, TrafficGenome};
    use crate::scenario::ScenarioGenome;
    use crate::topology::TopologyGenome;
    use crate::workload::WorkloadGenome;

    #[test]
    fn paper_base_matches_paper_settings() {
        let cfg = paper_sim_base(SimDuration::from_secs(5));
        assert_eq!(cfg.propagation_delay, SimDuration::from_millis(20));
        assert_eq!(cfg.min_rto, SimDuration::from_secs(1));
        assert!(cfg.sack_enabled && cfg.delayed_ack);
        cfg.validate().unwrap();
    }

    #[test]
    fn standard_campaign_has_consistent_budgets() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        // The traffic budget equals the number of packets the 12 Mbps link
        // can carry over the scenario (enough to fully occupy it).
        assert_eq!(
            c.traffic_max_packets,
            packets_for_rate(PAPER_LINK_RATE_BPS, c.sim.mss, SimDuration::from_secs(5))
        );
        assert!(c.traffic_max_packets > 4_000);
        assert_eq!(c.link_rate_bps, PAPER_LINK_RATE_BPS);
    }

    #[test]
    fn high_delay_campaign_switches_objective() {
        let c = Campaign::paper_high_delay(
            FuzzMode::Traffic,
            CcaKind::Bbr,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        match c.scoring.objective {
            crate::scoring::Objective::HighDelay { percentile } => assert_eq!(percentile, 10.0),
            other => panic!("unexpected objective {other:?}"),
        }
    }

    #[test]
    fn tiny_traffic_campaign_runs_end_to_end() {
        // A minimal end-to-end GA run over real simulations (kept tiny so the
        // unit-test suite stays fast; the integration tests run bigger ones).
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            ga,
        );
        let result = c.run::<TrafficGenome>();
        assert_eq!(result.history.len(), 2);
        assert!(result.total_evaluations >= 6);
        assert!(result.best_outcome.score > 0.0);
        result.best_genome.validate().unwrap();
    }

    #[test]
    fn tiny_link_campaign_runs_end_to_end() {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        ga.anneal = true;
        let c =
            Campaign::paper_standard(FuzzMode::Link, CcaKind::Reno, SimDuration::from_secs(2), ga);
        let result = c.run::<LinkGenome>();
        assert_eq!(result.history.len(), 2);
        let expected_packets =
            packets_for_rate(PAPER_LINK_RATE_BPS, c.sim.mss, SimDuration::from_secs(2));
        assert_eq!(result.best_genome.packet_count(), expected_packets);
    }

    #[test]
    fn fairness_campaign_preset_is_consistent() {
        let c = Campaign::paper_fairness(
            vec![CcaKind::Bbr, CcaKind::Reno],
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        assert_eq!(c.mode, FuzzMode::Fairness);
        assert_eq!(c.cca, CcaKind::Bbr);
        assert_eq!(c.flow_ccas, vec![CcaKind::Bbr, CcaKind::Reno]);
        assert!(c.max_flows >= 2);
        match c.scoring.objective {
            crate::scoring::Objective::Unfairness { .. } => {}
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Fairness.name(), "fairness");
    }

    #[test]
    fn tiny_fairness_campaign_runs_end_to_end() {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        let c = Campaign::paper_fairness(
            vec![CcaKind::Bbr, CcaKind::Reno],
            SimDuration::from_secs(2),
            ga,
        );
        let result = c.run::<ScenarioGenome>();
        assert_eq!(result.history.len(), 2);
        assert!(result.total_evaluations >= 6);
        result.best_genome.validate().unwrap();
        assert!(result.best_genome.flow_count() >= 2);
        assert!(result.best_outcome.score.is_finite());
    }

    #[test]
    fn aqm_campaign_preset_is_consistent() {
        let c = Campaign::paper_aqm(
            CcaKind::Cubic,
            SimDuration::from_secs(5),
            GaParams::quick(),
            QdiscChoice::Red,
        );
        assert_eq!(c.mode, FuzzMode::Aqm);
        assert_eq!(c.cca, CcaKind::Cubic);
        assert_eq!(c.max_flows, 1);
        assert_eq!(c.qdisc_choice, QdiscChoice::Red);
        match c.scoring.objective {
            crate::scoring::Objective::AqmBreakage {
                mark_weight,
                delay_weight,
                ..
            } => {
                assert_eq!(mark_weight, 0.5);
                assert_eq!(delay_weight, 0.5);
            }
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Aqm.name(), "aqm");
    }

    #[test]
    fn tiny_aqm_campaign_runs_end_to_end() {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        let c = Campaign::paper_aqm(
            CcaKind::Reno,
            SimDuration::from_secs(2),
            ga,
            QdiscChoice::Any,
        );
        let result = c.run::<ScenarioGenome>();
        assert_eq!(result.history.len(), 2);
        assert!(result.total_evaluations >= 6);
        result.best_genome.validate().unwrap();
        assert_eq!(result.best_genome.flow_count(), 1);
        assert!(
            result.best_genome.qdisc.is_some(),
            "aqm genomes always carry a qdisc gene"
        );
        assert!(result.best_outcome.score.is_finite());
        assert!(result.best_outcome.score > 0.0);
    }

    #[test]
    fn topology_campaign_preset_is_consistent() {
        let c = Campaign::paper_topology(
            CcaKind::Bbr,
            3,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        assert_eq!(c.mode, FuzzMode::Topology);
        assert_eq!(c.cca, CcaKind::Bbr);
        assert_eq!(c.topology_hops, 3);
        assert!(c.flow_ccas.contains(&CcaKind::Bbr));
        match c.scoring.objective {
            crate::scoring::Objective::MultiBottleneck {
                cascade_weight,
                collapse_weight,
                ..
            } => {
                assert_eq!(cascade_weight, 0.5);
                assert_eq!(collapse_weight, 0.5);
            }
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Topology.name(), "topology");
        assert_eq!(FuzzMode::from_name("topology"), Some(FuzzMode::Topology));
        assert_eq!(FuzzMode::from_name("nope"), None);
        assert_eq!(FuzzMode::ALL.len(), 6);
    }

    #[test]
    fn tiny_topology_campaign_runs_end_to_end() {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        let c = Campaign::paper_topology(CcaKind::Reno, 3, SimDuration::from_secs(2), ga);
        let result = c.run::<TopologyGenome>();
        assert_eq!(result.history.len(), 2);
        assert!(result.total_evaluations >= 6);
        result.best_genome.validate().unwrap();
        assert!(result.best_genome.hop_count() >= 1);
        assert!(result.best_outcome.score.is_finite());
        assert!(result.best_outcome.score > 0.0);
    }

    #[test]
    fn workload_campaign_preset_is_consistent() {
        let c = Campaign::paper_workload(
            CcaKind::Cubic,
            vec![CcaKind::Cubic, CcaKind::Reno],
            3,
            SimDuration::from_secs(5),
            GaParams::quick(),
        );
        assert_eq!(c.mode, FuzzMode::Workload);
        assert_eq!(c.cca, CcaKind::Cubic);
        assert_eq!(c.flow_ccas, vec![CcaKind::Cubic, CcaKind::Reno]);
        assert_eq!(c.max_flows, 3);
        match c.scoring.objective {
            crate::scoring::Objective::TailLatency { percentile, .. } => {
                assert_eq!(percentile, 99.0);
            }
            other => panic!("unexpected objective {other:?}"),
        }
        assert_eq!(FuzzMode::Workload.name(), "workload");
        assert_eq!(FuzzMode::from_name("workload"), Some(FuzzMode::Workload));
    }

    #[test]
    fn tiny_workload_campaign_runs_end_to_end() {
        let mut ga = GaParams::quick();
        ga.islands = 2;
        ga.population_per_island = 3;
        ga.generations = 2;
        let c = Campaign::paper_workload(
            CcaKind::Reno,
            vec![CcaKind::Reno, CcaKind::Cubic],
            2,
            SimDuration::from_secs(2),
            ga,
        );
        let result = c.run::<WorkloadGenome>();
        assert_eq!(result.history.len(), 2);
        assert!(result.total_evaluations >= 6);
        result.best_genome.validate().unwrap();
        assert!(result.best_genome.elephant_count() >= 1);
        assert!(result.best_outcome.score.is_finite());
    }

    #[test]
    #[should_panic(expected = "not in workload mode")]
    fn workload_mode_mismatch_panics() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            GaParams::quick(),
        );
        let _ = c.run::<WorkloadGenome>();
    }

    #[test]
    #[should_panic(expected = "not in topology mode")]
    fn topology_mode_mismatch_panics() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            GaParams::quick(),
        );
        let _ = c.run::<TopologyGenome>();
    }

    #[test]
    #[should_panic(expected = "not in aqm mode")]
    fn aqm_mode_mismatch_panics() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            GaParams::quick(),
        );
        let _ = c.run::<ScenarioGenome>();
    }

    #[test]
    #[should_panic(expected = "not in fairness mode")]
    fn fairness_mode_mismatch_panics() {
        let c = Campaign::paper_standard(
            FuzzMode::Traffic,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            GaParams::quick(),
        );
        let _ = c.run::<ScenarioGenome>();
    }

    #[test]
    #[should_panic(expected = "not in traffic mode")]
    fn mode_mismatch_panics() {
        let c = Campaign::paper_standard(
            FuzzMode::Link,
            CcaKind::Reno,
            SimDuration::from_secs(2),
            GaParams::quick(),
        );
        let _ = c.run::<TrafficGenome>();
    }
}
