//! Fuzz targets: the one place each genome type says how it is fuzzed.
//!
//! Every fuzz mode is the same loop — the GA evolves a genome, the
//! simulator runs it, a score comes back. What differs between modes is
//! owned by one [`FuzzTarget`] impl per genome type:
//!
//! | mode | genome | scenario it builds |
//! |---|---|---|
//! | `traffic` | [`TrafficGenome`] | cross traffic over the fixed link |
//! | `link` | [`LinkGenome`] | trace-driven bottleneck service curve |
//! | `fairness` | [`ScenarioGenome`] | N scheduled flows (+ cross traffic) |
//! | `aqm` | [`ScenarioGenome`] | as fairness, plus an evolved qdisc |
//! | `topology` | [`TopologyGenome`] | multi-hop chain with per-flow paths |
//! | `workload` | [`WorkloadGenome`] | dynamic arrivals + background elephants |
//!
//! [`crate::campaign::Campaign`], [`SimEvaluator`] and the corpus layer are
//! generic over `FuzzTarget`; none of them branches on the mode.

use crate::campaign::{Campaign, FuzzMode, PAPER_K_AGG_MS};
use crate::checkpoint::SnapshotPayload;
use crate::evaluate::{EvalOutcome, EvalScratch, SimEvaluator};
use crate::fuzzer::{AnnealFn, FuzzerSnapshot};
use crate::genome::{Genome, LinkGenome, TrafficGenome};
use crate::scenario::{FlowGene, ScenarioGenome};
use crate::scoring::{ScoreScratch, ScoringConfig, TraceScoreInputs};
use crate::topology::TopologyGenome;
use crate::trace_gen::packets_for_rate;
use crate::workload::WorkloadGenome;
use ccfuzz_cca::{CcaDispatch, CcaKind};
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::link::LinkModel;
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::sim::{FlowSpec, SimResult, SimScratch};
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_netsim::trace::{LinkTrace, TrafficTrace};
use serde::{Deserialize, Serialize};

/// A genome type the fuzzer can evolve end to end: seeding, scenario
/// construction, scoring and checkpoint wrapping.
///
/// Implementations must keep one rule: the scenario a genome builds, and
/// the score it gets, are pure functions of the genome and the evaluator.
/// Fresh, scratch-reusing and traced runs all go through
/// [`FuzzTarget::build`], so they are byte-identical by construction.
pub trait FuzzTarget: Genome + Serialize + Deserialize {
    /// The campaign modes this genome type serves.
    const MODES: &'static [FuzzMode];

    /// Draws one genome of a fresh initial population for `campaign`.
    fn seed(campaign: &Campaign, rng: &mut SimRng) -> Self;

    /// The annealing hook `campaign` attaches to its fuzzer, if any.
    fn annealer(_campaign: &Campaign) -> Option<Box<AnnealFn<Self>>> {
        None
    }

    /// Fills `cfg` (a copy of the evaluator's base settings) with this
    /// genome's scenario, and refills `scratch`'s flow specs — plus its CCA
    /// prototypes when the scenario has dynamic arrivals.
    fn build(&self, ev: &SimEvaluator, cfg: &mut SimConfig, scratch: &mut EvalScratch);

    /// The scoring configuration this genome is scored under.
    fn scoring(&self, base: &ScoringConfig) -> ScoringConfig {
        *base
    }

    /// Scores a finished simulation of this genome.
    fn score(
        &self,
        scoring: &ScoringConfig,
        mss: u32,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome;

    /// Swaps the primary flow's algorithm (replay against another CCA).
    /// Single-flow genomes carry no flow: the evaluator's CCA is theirs.
    fn set_primary_cca(&mut self, _cca: CcaKind) {}

    /// The algorithm of every flow with per-flow statistics, in flow order;
    /// `None` for single-flow genomes.
    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        None
    }

    /// Wraps a population snapshot for persistence.
    fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload;

    /// Unwraps a persisted population snapshot of this genome type.
    fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String>;
}

/// The `wrap_snapshot`/`unwrap_snapshot` pair of a genome type stored in
/// `SnapshotPayload::$variant`; `$kind` names it in mismatch errors.
macro_rules! snapshot_variant {
    ($variant:ident, $kind:literal) => {
        fn wrap_snapshot(snapshot: FuzzerSnapshot<Self>) -> SnapshotPayload {
            SnapshotPayload::$variant(snapshot)
        }

        fn unwrap_snapshot(payload: SnapshotPayload) -> Result<FuzzerSnapshot<Self>, String> {
            match payload {
                SnapshotPayload::$variant(s) => Ok(s),
                other => Err(format!(
                    "checkpoint holds a {} population, cannot resume a {} campaign",
                    other.kind_name(),
                    $kind
                )),
            }
        }
    };
}

/// `traffic` in a recycled timestamp buffer, or an empty trace.
fn cross_traffic(
    traffic: Option<&TrafficGenome>,
    duration: SimDuration,
    sim: &mut SimScratch<CcaDispatch>,
) -> TrafficTrace {
    match traffic {
        Some(t) => {
            let mut buf = sim.take_time_buf();
            buf.extend_from_slice(&t.timestamps);
            TrafficTrace::new(buf, t.duration)
        }
        None => TrafficTrace::empty(duration),
    }
}

/// The trace-minimality inputs of a cross-traffic (sub-)genome.
fn trace_inputs(traffic: &TrafficGenome, result: &SimResult) -> TraceScoreInputs {
    TraceScoreInputs {
        traffic_packets: traffic.packet_count(),
        traffic_max_packets: traffic.max_packets,
        traffic_dropped: result.stats.cross_dropped,
    }
}

/// The CCA under test as the only flow, enum-dispatched.
fn single_flow(ev: &SimEvaluator, cfg: &SimConfig, specs: &mut Vec<FlowSpec<CcaDispatch>>) {
    specs.clear();
    specs.push(FlowSpec {
        cc: ev.cca.build_dispatch(cfg.initial_cwnd),
        start: cfg.flow_start,
        stop: None,
    });
}

/// One enum-dispatched sender per flow gene.
fn flow_specs<'g>(
    flows: impl Iterator<Item = &'g FlowGene>,
    cfg: &SimConfig,
    specs: &mut Vec<FlowSpec<CcaDispatch>>,
) {
    specs.clear();
    specs.extend(flows.map(|f| FlowSpec {
        cc: f.cca.build_dispatch(cfg.initial_cwnd),
        start: f.start,
        stop: f.stop,
    }));
}

impl FuzzTarget for TrafficGenome {
    const MODES: &'static [FuzzMode] = &[FuzzMode::Traffic];

    fn seed(c: &Campaign, rng: &mut SimRng) -> Self {
        TrafficGenome::generate(c.traffic_max_packets, c.duration, rng)
    }

    fn build(&self, ev: &SimEvaluator, cfg: &mut SimConfig, scratch: &mut EvalScratch) {
        cfg.link = LinkModel::FixedRate {
            rate_bps: ev.link_rate_bps,
        };
        cfg.cross_traffic = cross_traffic(Some(self), self.duration, &mut scratch.sim);
        cfg.duration = self.duration;
        single_flow(ev, cfg, &mut scratch.specs);
    }

    fn score(
        &self,
        scoring: &ScoringConfig,
        mss: u32,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let inputs = Some(trace_inputs(self, result));
        EvalOutcome::from_result_reusing(scoring, result, mss, inputs, scratch)
    }

    snapshot_variant!(Traffic, "traffic");
}

impl FuzzTarget for LinkGenome {
    const MODES: &'static [FuzzMode] = &[FuzzMode::Link];

    fn seed(c: &Campaign, rng: &mut SimRng) -> Self {
        let total_packets = packets_for_rate(c.link_rate_bps, c.sim.mss, c.duration);
        let k_agg = SimDuration::from_millis(PAPER_K_AGG_MS);
        LinkGenome::generate(total_packets, c.duration, k_agg, rng)
    }

    fn annealer(c: &Campaign) -> Option<Box<AnnealFn<Self>>> {
        c.ga.anneal.then(|| -> Box<AnnealFn<Self>> {
            Box::new(|genome: &LinkGenome, rng: &mut SimRng| {
                genome.anneal(3, SimDuration::from_micros(200), rng)
            })
        })
    }

    fn build(&self, ev: &SimEvaluator, cfg: &mut SimConfig, scratch: &mut EvalScratch) {
        let mut buf = scratch.sim.take_time_buf();
        buf.extend_from_slice(&self.timestamps);
        cfg.link = LinkModel::TraceDriven {
            trace: LinkTrace::new(buf, self.duration),
        };
        cfg.cross_traffic = TrafficTrace::empty(self.duration);
        cfg.duration = self.duration;
        single_flow(ev, cfg, &mut scratch.specs);
    }

    fn score(
        &self,
        scoring: &ScoringConfig,
        mss: u32,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        EvalOutcome::from_result_reusing(scoring, result, mss, None, scratch)
    }

    snapshot_variant!(Link, "link");
}

/// Fairness and AQM campaigns are two parameterisations of one scenario
/// target: the campaign mode picks the seeding (competing flows vs. a
/// single flow behind an evolved gateway); everything else is shared.
impl FuzzTarget for ScenarioGenome {
    const MODES: &'static [FuzzMode] = &[FuzzMode::Fairness, FuzzMode::Aqm];

    fn seed(c: &Campaign, rng: &mut SimRng) -> Self {
        match c.mode {
            FuzzMode::Aqm => ScenarioGenome::generate_aqm(
                c.cca,
                c.duration,
                c.traffic_max_packets,
                c.qdisc_choice,
                rng,
            ),
            _ => ScenarioGenome::generate(
                &c.flow_ccas,
                c.max_flows,
                c.duration,
                c.traffic_max_packets,
                rng,
            ),
        }
    }

    fn build(&self, ev: &SimEvaluator, cfg: &mut SimConfig, scratch: &mut EvalScratch) {
        cfg.link = LinkModel::FixedRate {
            rate_bps: ev.link_rate_bps,
        };
        cfg.cross_traffic = cross_traffic(self.traffic.as_ref(), self.duration, &mut scratch.sim);
        cfg.duration = self.duration;
        // AQM scenarios carry the gateway in the genome; fairness scenarios
        // leave it as the campaign configured (drop-tail today).
        if let Some(gene) = &self.qdisc {
            cfg.qdisc = gene.discipline;
            cfg.ecn_enabled = gene.ecn;
        }
        flow_specs(self.flows.iter(), cfg, &mut scratch.specs);
    }

    fn score(
        &self,
        scoring: &ScoringConfig,
        mss: u32,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let inputs = self.traffic.as_ref().map(|t| trace_inputs(t, result));
        EvalOutcome::from_multi_flow_result(scoring, result, mss, inputs, scratch)
    }

    fn set_primary_cca(&mut self, cca: CcaKind) {
        self.flows[0].cca = cca;
    }

    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        Some(self.flows.iter().map(|f| f.cca).collect())
    }

    snapshot_variant!(Scenario, "scenario");
}

impl FuzzTarget for TopologyGenome {
    const MODES: &'static [FuzzMode] = &[FuzzMode::Topology];

    fn seed(c: &Campaign, rng: &mut SimRng) -> Self {
        TopologyGenome::generate(
            c.cca,
            c.topology_hops,
            c.duration,
            c.traffic_max_packets,
            &c.flow_ccas,
            rng,
        )
    }

    fn build(&self, _ev: &SimEvaluator, cfg: &mut SimConfig, scratch: &mut EvalScratch) {
        // The legacy single-bottleneck fields stay at the campaign defaults;
        // the genome's hop chain supersedes them.
        cfg.topology = Some(self.to_topology());
        cfg.cross_traffic = cross_traffic(self.traffic.as_ref(), self.duration, &mut scratch.sim);
        cfg.duration = self.duration;
        flow_specs(self.flows.iter().map(|f| &f.flow), cfg, &mut scratch.specs);
    }

    /// The reference rate is capped at the evolved chain's bottleneck rate,
    /// so the throughput and collapse terms measure *underutilization of
    /// the capacity the chain actually offers*. Without the cap, the GA's
    /// steepest gradient would simply be "evolve slower hops" — a 3 Mbps
    /// chain scores >= 0.75 against the fixed 12 Mbps reference even when
    /// every flow behaves perfectly (the same reward hack the link genome
    /// prevents by fixing its total packet count).
    fn scoring(&self, base: &ScoringConfig) -> ScoringConfig {
        let mut scoring = *base;
        if let Some(bottleneck) = self.hops.iter().map(|h| h.rate_bps).min() {
            scoring.reference_rate_bps = scoring.reference_rate_bps.min(bottleneck as f64);
        }
        scoring
    }

    fn score(
        &self,
        scoring: &ScoringConfig,
        mss: u32,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        let inputs = self.traffic.as_ref().map(|t| trace_inputs(t, result));
        EvalOutcome::from_multi_flow_result(scoring, result, mss, inputs, scratch)
    }

    fn set_primary_cca(&mut self, cca: CcaKind) {
        self.flows[0].flow.cca = cca;
    }

    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        Some(self.flows.iter().map(|f| f.flow.cca).collect())
    }

    snapshot_variant!(Topology, "topology");
}

impl FuzzTarget for WorkloadGenome {
    const MODES: &'static [FuzzMode] = &[FuzzMode::Workload];

    fn seed(c: &Campaign, rng: &mut SimRng) -> Self {
        WorkloadGenome::generate(c.cca, &c.flow_ccas, c.max_flows, c.duration, rng)
    }

    fn build(&self, ev: &SimEvaluator, cfg: &mut SimConfig, scratch: &mut EvalScratch) {
        cfg.link = LinkModel::FixedRate {
            rate_bps: ev.link_rate_bps,
        };
        cfg.cross_traffic = TrafficTrace::empty(self.duration);
        cfg.duration = self.duration;
        cfg.arrivals = Some(self.arrivals);
        // The elephants are static flows; arrivals clone the prototypes.
        flow_specs(self.elephants.iter(), cfg, &mut scratch.specs);
        scratch.protos.clear();
        scratch.protos.extend(
            self.cca_pool
                .iter()
                .map(|cca| cca.build_dispatch(cfg.initial_cwnd)),
        );
    }

    fn score(
        &self,
        scoring: &ScoringConfig,
        mss: u32,
        result: &SimResult,
        scratch: &mut ScoreScratch,
    ) -> EvalOutcome {
        // No traffic sub-genome: the adversarial pressure is the arrival
        // process itself, so there is no trace-minimality term. The churned
        // flows are summarised by `result.stats.workload`, which the
        // tail-latency objective reads directly.
        EvalOutcome::from_multi_flow_result(scoring, result, mss, None, scratch)
    }

    /// The override replaces the incumbent elephant's algorithm; the
    /// arrival pool keeps its mix.
    fn set_primary_cca(&mut self, cca: CcaKind) {
        self.elephants[0].cca = cca;
    }

    /// Only the static elephants surface per-flow stats (arriving flows
    /// aggregate into the workload block).
    fn flow_ccas(&self) -> Option<Vec<CcaKind>> {
        Some(self.elephants.iter().map(|f| f.cca).collect())
    }

    snapshot_variant!(Workload, "workload");
}
