//! Trace minimization: shrink a winning trace to an interpretable core.
//!
//! The GA's best traces carry a lot of incidental structure — packets that
//! contribute nothing, bursts with irrelevant micro-timing, outages far
//! longer than needed. Minimization makes findings *explainable* (the paper's
//! Figure 4 traces are readable precisely because they are simple) and
//! cheaper to replay. Two stages, both driven by re-simulation:
//!
//! 1. **Delta debugging** over genome segments (traffic mode): repeatedly try
//!    deleting index ranges, keeping a deletion whenever the re-simulated
//!    score retains at least `retain_fraction` of the original. Granularity
//!    halves each round, AFL-tmin style.
//! 2. **Value-level shrinking**: flatten bursts to even spacing, compress
//!    over-long outages, and (link mode, where packet count is an invariant)
//!    quantize timestamps to the coarsest grid that keeps the score.
//!
//! Every genome type lists its passes (`Shrink`), and every pass spends
//! its evaluations through one driver (`Shrinker`): it owns the current
//! genome, its score, the retention threshold, the budget and the pass log,
//! and has the single "evaluate, then accept or reject" step.
//!
//! Invariants, verified by property tests: the minimized trace never has
//! *more* packets than the input, and its score never drops below
//! `retain_fraction * original_score`.

use crate::finding::{each_genome, Finding};
use crate::signature::BehaviorSignature;
use ccfuzz_core::evaluate::{Evaluator, SimEvaluator};
use ccfuzz_core::genome::{Genome, LinkGenome, TrafficGenome};
use ccfuzz_core::scenario::{QdiscGene, ScenarioGenome};
use ccfuzz_core::topology::TopologyGenome;
use ccfuzz_core::workload::WorkloadGenome;
use ccfuzz_netsim::queue::{Qdisc, QueueCapacity};
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_netsim::workload::ArrivalProcess;
use serde::{Deserialize, Serialize};

/// Minimization policy.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MinimizeConfig {
    /// Fraction of the original score the minimized trace must retain
    /// (0.8 by default — the acceptance bar from the issue).
    pub retain_fraction: f64,
    /// Simulation budget: minimization stops when it has spent this many
    /// evaluations.
    pub max_evaluations: usize,
}

impl Default for MinimizeConfig {
    fn default() -> Self {
        MinimizeConfig {
            retain_fraction: 0.8,
            max_evaluations: 300,
        }
    }
}

/// Gaps below this are considered part of one burst when flattening.
const BURST_GAP: SimDuration = SimDuration::from_millis(2);
/// Outages longer than this are compressed down to this.
const OUTAGE_CAP: SimDuration = SimDuration::from_millis(500);
/// Quantization grids tried for link genomes, coarsest first.
const LINK_GRIDS: [SimDuration; 4] = [
    SimDuration::from_millis(100),
    SimDuration::from_millis(50),
    SimDuration::from_millis(20),
    SimDuration::from_millis(10),
];

/// What minimization achieved.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MinimizeReport {
    /// Packets before.
    pub original_packets: u64,
    /// Packets after.
    pub minimized_packets: u64,
    /// Score before (re-measured at the start of minimization).
    pub original_score: f64,
    /// Score after.
    pub minimized_score: f64,
    /// The floor the minimized score had to clear.
    pub threshold: f64,
    /// Simulations spent.
    pub evaluations: u64,
    /// Human-readable notes about which passes did what.
    pub passes: Vec<String>,
}

/// The shrink driver every pass runs through.
struct Shrinker<'e, G, E> {
    evaluator: &'e E,
    /// The smallest genome accepted so far.
    current: G,
    /// Its score.
    score: f64,
    /// The floor a candidate's score must clear to be accepted.
    threshold: f64,
    spent: usize,
    max: usize,
    passes: Vec<String>,
}

impl<G: Genome, E: Evaluator<G>> Shrinker<'_, G, E> {
    fn exhausted(&self) -> bool {
        self.spent >= self.max
    }

    /// Spends one evaluation on `genome`.
    fn evaluate(&mut self, genome: &G) -> f64 {
        self.spent += 1;
        self.evaluator.evaluate(genome).score
    }

    /// Evaluates `candidate` and adopts it when its score clears the
    /// threshold. With a `label`, the verdict goes into the pass log.
    fn attempt(&mut self, candidate: G, label: Option<&str>) -> bool {
        let score = self.evaluate(&candidate);
        let accepted = score >= self.threshold;
        if let Some(label) = label {
            self.passes.push(if accepted {
                format!("{label}: accepted (score {score:.6})")
            } else {
                format!(
                    "{label}: rejected (score {score:.6} < {:.6})",
                    self.threshold
                )
            });
        }
        if accepted {
            self.current = candidate;
            self.score = score;
        }
        accepted
    }

    /// Keeps applying `step` to the current genome while the budget lasts,
    /// `step` has a labelled change to offer, and each change is accepted.
    fn repeat(&mut self, mut step: impl FnMut(&G) -> Option<(G, String)>) {
        while !self.exhausted() {
            let Some((candidate, label)) = step(&self.current) else {
                break;
            };
            if !self.attempt(candidate, Some(&label)) {
                break;
            }
        }
    }

    /// Tries removing one element at a time, from index `first` on, while
    /// more than one is left. An accepted removal changes the dynamics, so
    /// the scan restarts at `first`: an earlier rejection may go through now.
    fn drop_each(
        &mut self,
        first: usize,
        len: impl Fn(&G) -> usize,
        without: impl Fn(&G, usize) -> Option<G>,
    ) {
        let mut at = first;
        while len(&self.current) > 1 && at < len(&self.current) && !self.exhausted() {
            let Some(candidate) = without(&self.current, at) else {
                break;
            };
            at = if self.attempt(candidate, None) {
                first
            } else {
                at + 1
            };
        }
    }
}

/// A genome type's minimization passes, in order.
trait Shrink<E>: Genome {
    fn passes(s: &mut Shrinker<'_, Self, E>);
}

/// Anchors the score and threshold with one evaluation, runs `G`'s passes
/// and reports what they achieved.
fn minimize<G: Shrink<E>, E: Evaluator<G>>(
    evaluator: &E,
    genome: &G,
    cfg: &MinimizeConfig,
) -> (G, MinimizeReport) {
    let mut s = Shrinker {
        evaluator,
        current: genome.clone(),
        score: 0.0,
        threshold: 0.0,
        spent: 0,
        max: cfg.max_evaluations.max(1),
        passes: Vec::new(),
    };
    let original_score = s.evaluate(genome);
    s.score = original_score;
    s.threshold = original_score * cfg.retain_fraction;
    G::passes(&mut s);

    debug_assert!(s.current.packet_count() <= genome.packet_count());
    let report = MinimizeReport {
        original_packets: genome.packet_count() as u64,
        minimized_packets: s.current.packet_count() as u64,
        original_score,
        minimized_score: s.score,
        threshold: s.threshold,
        evaluations: s.spent as u64,
        passes: s.passes,
    };
    (s.current, report)
}

/// Minimizes a traffic genome against an evaluator.
pub fn minimize_traffic<E: Evaluator<TrafficGenome>>(
    evaluator: &E,
    genome: &TrafficGenome,
    cfg: &MinimizeConfig,
) -> (TrafficGenome, MinimizeReport) {
    minimize(evaluator, genome, cfg)
}

/// Minimizes a link genome. Packet count is a link-genome invariant (it
/// defines the average bandwidth), so shrinking is purely value-level:
/// the coarsest acceptable quantization grid, then outage compression.
pub fn minimize_link<E: Evaluator<LinkGenome>>(
    evaluator: &E,
    genome: &LinkGenome,
    cfg: &MinimizeConfig,
) -> (LinkGenome, MinimizeReport) {
    minimize(evaluator, genome, cfg)
}

/// A genome whose cross traffic the traffic passes shrink: every candidate
/// traffic genome is re-embedded into the (otherwise fixed) genome before
/// evaluation. A traffic genome embeds itself.
trait CrossTraffic: Genome {
    fn traffic(&self) -> Option<&TrafficGenome>;
    fn with_traffic(&self, traffic: TrafficGenome) -> Self;
}

impl CrossTraffic for TrafficGenome {
    fn traffic(&self) -> Option<&TrafficGenome> {
        Some(self)
    }
    fn with_traffic(&self, traffic: TrafficGenome) -> Self {
        traffic
    }
}

impl CrossTraffic for ScenarioGenome {
    fn traffic(&self) -> Option<&TrafficGenome> {
        self.traffic.as_ref()
    }
    fn with_traffic(&self, traffic: TrafficGenome) -> Self {
        let mut out = self.clone();
        out.traffic = Some(traffic);
        out
    }
}

impl CrossTraffic for TopologyGenome {
    fn traffic(&self) -> Option<&TrafficGenome> {
        self.traffic.as_ref()
    }
    fn with_traffic(&self, traffic: TrafficGenome) -> Self {
        let mut out = self.clone();
        out.traffic = Some(traffic);
        out
    }
}

impl<G: CrossTraffic, E: Evaluator<G>> Shrinker<'_, G, E> {
    /// The current cross traffic; only called once it is known to exist.
    fn cross(&self) -> &TrafficGenome {
        self.current
            .traffic()
            .expect("genome carries cross traffic")
    }

    /// Delta debugging over the cross-traffic packets, then value-level
    /// shrinking. A genome without cross traffic (a `noun`) only gets a note.
    fn traffic_passes(&mut self, noun: &str) {
        let Some(traffic) = self.current.traffic() else {
            self.passes
                .push(format!("{noun} has no cross traffic; nothing to shrink"));
            return;
        };
        let packets = traffic.packet_count();
        self.ddmin();
        self.passes.push(format!(
            "ddmin: removed {} of {packets} packets ({} evals)",
            packets - self.cross().packet_count(),
            self.spent
        ));

        // Both candidates are derived from the post-ddmin trace up front, so
        // an accepted outage cut replaces an accepted flatten rather than
        // building on it.
        for (label, candidate) in [
            ("flatten-bursts", self.cross().flattened_bursts(BURST_GAP)),
            (
                "shorten-outages",
                self.cross().shortened_outages(OUTAGE_CAP),
            ),
        ] {
            if self.exhausted() {
                break;
            }
            if candidate.timestamps == self.cross().timestamps {
                continue;
            }
            let candidate = self.current.with_traffic(candidate);
            self.attempt(candidate, Some(label));
        }
    }

    /// Greedy delta-debugging: try deleting each of `n` segments; on success
    /// restart at the same granularity, otherwise halve segment size.
    fn ddmin(&mut self) {
        let mut num_segments = 2usize;
        loop {
            let n = self.cross().packet_count();
            if n == 0 || self.exhausted() {
                return;
            }
            let seg_len = n.div_ceil(num_segments);
            let mut any_removed = false;
            let mut seg = 0usize;
            while seg * seg_len < self.cross().packet_count() && !self.exhausted() {
                let lo = seg * seg_len;
                let hi = (lo + seg_len).min(self.cross().packet_count());
                let candidate = self
                    .current
                    .with_traffic(self.cross().without_index_range(lo..hi));
                if self.attempt(candidate, None) {
                    any_removed = true;
                    // Do not advance `seg`: the segment that slid into this
                    // position is tried next.
                } else {
                    seg += 1;
                }
            }
            if !any_removed {
                if seg_len == 1 {
                    return;
                }
                num_segments = num_segments.saturating_mul(2);
            }
        }
    }
}

impl<E: Evaluator<TrafficGenome>> Shrink<E> for TrafficGenome {
    fn passes(s: &mut Shrinker<'_, Self, E>) {
        s.traffic_passes("trace");
    }
}

impl<E: Evaluator<LinkGenome>> Shrink<E> for LinkGenome {
    fn passes(s: &mut Shrinker<'_, Self, E>) {
        for grid in LINK_GRIDS {
            if s.exhausted() {
                break;
            }
            let candidate = s.current.quantized(grid);
            if candidate.timestamps == s.current.timestamps {
                continue;
            }
            let label = format!("quantize-{}ms", grid.as_millis());
            if s.attempt(candidate, Some(&label)) {
                break; // coarsest acceptable grid wins
            }
        }
        if !s.exhausted() {
            let candidate = s.current.shortened_outages(OUTAGE_CAP);
            if candidate.timestamps != s.current.timestamps {
                s.attempt(candidate, Some("shorten-outages"));
            }
        }
    }
}

/// A strictly milder (closer-to-drop-tail) version of a qdisc gene: RED
/// thresholds move halfway toward the queue capacity and the mark
/// probability halves; CoDel's target and interval double. Returns `None`
/// when the gene cannot get meaningfully milder.
fn milder_qdisc(gene: &QdiscGene, capacity_packets: usize) -> Option<QdiscGene> {
    let mut out = *gene;
    match &mut out.discipline {
        Qdisc::DropTail => return None,
        Qdisc::Red {
            min_thresh,
            max_thresh,
            mark_probability,
        } => {
            let new_min = *min_thresh + (capacity_packets.saturating_sub(*min_thresh)) / 2;
            let new_max =
                (*max_thresh + (capacity_packets.saturating_sub(*max_thresh)) / 2).max(new_min + 1);
            let new_p = (*mark_probability / 2.0).max(0.01);
            if new_min == *min_thresh && new_max == *max_thresh && new_p >= *mark_probability {
                return None;
            }
            *min_thresh = new_min;
            *max_thresh = new_max;
            *mark_probability = new_p;
        }
        Qdisc::CoDel { target, interval } => {
            let cap = SimDuration::from_millis(1_000);
            if *target >= cap && *interval >= cap {
                return None;
            }
            *target = (*target + *target).min(cap);
            *interval = (*interval + *interval).min(cap);
        }
    }
    Some(out)
}

/// Scenario genomes: flow genes are the scenario's substance and stay; what
/// shrinks is the cross-traffic helper (when present), with the full traffic
/// pipeline against the multi-flow simulation, and then the qdisc gene (when
/// present), stepped toward drop-tail as far as the score allows.
impl Shrink<SimEvaluator> for ScenarioGenome {
    fn passes(s: &mut Shrinker<'_, Self, SimEvaluator>) {
        s.traffic_passes("scenario");
        if s.current.qdisc.is_none() || s.exhausted() {
            return;
        }
        // Maximal shrink: the behaviour survives on a plain drop-tail
        // gateway (no qdisc gene at all, no ECN).
        let mut candidate = s.current.clone();
        candidate.qdisc = None;
        if s.attempt(candidate, Some("qdisc->droptail")) {
            return;
        }
        // Otherwise step the discipline's parameters milder.
        let capacity_packets = match s.evaluator.base.queue_capacity {
            QueueCapacity::Packets(n) => n,
            QueueCapacity::Bytes(b) => (b / s.evaluator.base.mss.max(1) as u64).max(1) as usize,
        };
        s.repeat(|current| {
            let milder = milder_qdisc(current.qdisc.as_ref()?, capacity_packets)?;
            let mut candidate = current.clone();
            candidate.qdisc = Some(milder);
            Some((
                candidate,
                format!("qdisc-milder {}", milder.discipline.label()),
            ))
        });
    }
}

/// One step of relaxing hop `at` toward the paper's single-bottleneck
/// baseline: drop its qdisc, then widen its buffer to the paper's 100
/// packets, then raise its rate to the campaign's reference rate, then
/// settle its delay on the paper's 20 ms. Returns `None` once the hop is
/// fully baseline.
fn relaxed_hop(
    genome: &TopologyGenome,
    at: usize,
    baseline_rate_bps: u64,
) -> Option<(TopologyGenome, &'static str)> {
    let hop = &genome.hops[at];
    let mut child = genome.clone();
    if hop.qdisc.is_some() {
        child.hops[at].qdisc = None;
        return Some((child, "qdisc->droptail"));
    }
    if hop.buffer_packets < 100 {
        child.hops[at].buffer_packets = 100;
        return Some((child, "buffer->100"));
    }
    if hop.rate_bps < baseline_rate_bps {
        child.hops[at].rate_bps = baseline_rate_bps;
        return Some((child, "rate->baseline"));
    }
    if hop.delay != SimDuration::from_millis(20) {
        child.hops[at].delay = SimDuration::from_millis(20);
        return Some((child, "delay->20ms"));
    }
    None
}

/// Topology genomes: the hop chain is the finding's substance, so
/// minimization shrinks the cross-traffic helper with the full traffic
/// pipeline against the multi-hop simulation, then pulls the chain toward
/// the single-hop paper baseline from two directions: dropping whole hops
/// (ideally down to the dumbbell), then relaxing each survivor's qdisc /
/// buffer / rate / delay. Whatever stays tightened is what the behaviour
/// genuinely depends on.
impl Shrink<SimEvaluator> for TopologyGenome {
    fn passes(s: &mut Shrinker<'_, Self, SimEvaluator>) {
        s.traffic_passes("topology");
        let hops = s.current.hop_count();
        s.drop_each(0, TopologyGenome::hop_count, TopologyGenome::without_hop);
        s.passes.push(format!(
            "drop-hops: {hops} -> {} hops",
            s.current.hop_count()
        ));
        let baseline_rate = s.evaluator.link_rate_bps;
        for at in 0..s.current.hop_count() {
            s.repeat(|current| {
                let (candidate, step) = relaxed_hop(current, at, baseline_rate)?;
                Some((candidate, format!("relax hop {at} {step}")))
            });
        }
    }
}

/// Halves a workload's arrival rate, flooring at 1 flow/s. Returns `None`
/// once the rate cannot meaningfully drop further.
fn thinned_arrivals(genome: &WorkloadGenome) -> Option<WorkloadGenome> {
    let rate = genome.arrivals.process.rate_per_sec();
    let new_rate = rate / 2.0;
    if new_rate < 1.0 {
        return None;
    }
    let mut child = genome.clone();
    match &mut child.arrivals.process {
        ArrivalProcess::Poisson { rate_per_sec } => *rate_per_sec = new_rate,
        ArrivalProcess::OnOff { rate_per_sec, .. } => *rate_per_sec = new_rate,
    }
    Some(child)
}

/// Workload genomes: the arrival genes are the finding's substance, so
/// minimization pulls them toward the quietest workload that still shows
/// the behaviour. It halves the arrival rate (fewer churning flows),
/// collapses the flow-size distribution from the top (a finding that
/// survives with mice-only sizes is far easier to reason about than one
/// hiding behind a heavy tail), and drops background elephants (never the
/// incumbent at index 0). Thinning arrivals first leaves fewer flows for
/// the later passes to re-simulate, so the budget goes further.
impl Shrink<SimEvaluator> for WorkloadGenome {
    fn passes(s: &mut Shrinker<'_, Self, SimEvaluator>) {
        s.repeat(|current| {
            let candidate = thinned_arrivals(current)?;
            let rate = candidate.arrivals.process.rate_per_sec();
            Some((candidate, format!("thin-arrivals {rate:.1}/s")))
        });
        s.repeat(|current| {
            let size = current.arrivals.size;
            let new_max = (size.max_packets / 2).max(size.min_packets);
            if new_max == size.max_packets {
                return None;
            }
            let mut candidate = current.clone();
            candidate.arrivals.size.max_packets = new_max;
            Some((candidate, format!("collapse-sizes max={new_max}pkt")))
        });
        let elephants = s.current.elephant_count();
        s.drop_each(1, WorkloadGenome::elephant_count, |current, at| {
            let mut candidate = current.clone();
            candidate.elephants.remove(at);
            Some(candidate)
        });
        s.passes.push(format!(
            "drop-elephants: {elephants} -> {} elephants",
            s.current.elephant_count()
        ));
    }
}

/// Minimizes a stored finding: shrinks its genome with the finding's own
/// evaluator, then refreshes the outcome, signature, digest and provenance.
pub fn minimize_finding(finding: &Finding, cfg: &MinimizeConfig) -> (Finding, MinimizeReport) {
    let evaluator = finding.evaluator();
    let mut out = finding.clone();
    let report;
    (out.genome, report) = each_genome!(&finding.genome, genome => {
        let (minimized, report) = minimize(&evaluator, genome, cfg);
        (minimized.into(), report)
    });
    // One final simulation refreshes the outcome, the digest and (for
    // scenarios) the per-flow fairness summary.
    let (outcome, digest, fairness) = out.replay_full(None);
    out.outcome = outcome;
    out.behavior_digest = digest;
    out.fairness = fairness;
    out.signature = BehaviorSignature::from_outcome(&out.outcome, out.link_rate_bps as f64);
    // The id names the behaviour, so it follows the refreshed signature.
    // Minimization preserves the behaviour up to bucket granularity, so the
    // id usually survives; when a bucket boundary is crossed, store the
    // result with `Corpus::update`, which removes the old file and applies
    // the keep-the-stronger dedup policy under the new id.
    out.id = crate::finding::finding_id(out.cca, out.mode, &out.signature);
    out.provenance.minimized = true;
    out.provenance.original_score = report.original_score;
    out.provenance.original_packets = report.original_packets;
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccfuzz_core::evaluate::EvalOutcome;
    use ccfuzz_netsim::time::{SimDuration, SimTime};

    /// A synthetic evaluator: score = fraction of "payload" packets present
    /// in the window [1s, 2s], plus noise packets contributing nothing.
    /// Minimization should strip everything outside the window.
    struct WindowEvaluator;

    impl Evaluator<TrafficGenome> for WindowEvaluator {
        fn evaluate(&self, genome: &TrafficGenome) -> EvalOutcome {
            let in_window = genome
                .timestamps
                .iter()
                .filter(|t| {
                    **t >= SimTime::from_millis(1_000) && **t <= SimTime::from_millis(2_000)
                })
                .count();
            EvalOutcome {
                score: in_window as f64,
                ..Default::default()
            }
        }
    }

    fn genome_with(times_ms: &[u64]) -> TrafficGenome {
        TrafficGenome {
            timestamps: times_ms
                .iter()
                .map(|&ms| SimTime::from_millis(ms))
                .collect(),
            duration: SimDuration::from_secs(5),
            max_packets: 10_000,
        }
    }

    #[test]
    fn ddmin_strips_irrelevant_packets() {
        // 6 payload packets inside the window, 14 noise packets outside.
        let mut times: Vec<u64> = (0..14).map(|i| 100 + i * 50).collect(); // 100..750ms
        times.extend([1_100, 1_200, 1_300, 1_400, 1_500, 1_600]);
        times.sort_unstable();
        let genome = genome_with(&times);

        let cfg = MinimizeConfig {
            retain_fraction: 1.0,
            ..Default::default()
        };
        let (min, report) = minimize_traffic(&WindowEvaluator, &genome, &cfg);
        assert_eq!(
            min.packet_count(),
            6,
            "only the window packets survive: {report:?}"
        );
        assert_eq!(report.minimized_score, report.original_score);
        assert_eq!(report.original_packets, 20);
        assert_eq!(report.minimized_packets, 6);
        assert_eq!(
            report.passes,
            ["ddmin: removed 14 of 20 packets (26 evals)"]
        );
        min.validate().unwrap();
    }

    #[test]
    fn retention_threshold_allows_partial_shrink() {
        // Score = packets in window; retaining 50% allows dropping half the
        // payload.
        let times: Vec<u64> = (0..8).map(|i| 1_100 + i * 100).collect();
        let genome = genome_with(&times);
        let cfg = MinimizeConfig {
            retain_fraction: 0.5,
            ..Default::default()
        };
        let (min, report) = minimize_traffic(&WindowEvaluator, &genome, &cfg);
        assert!(min.packet_count() <= genome.packet_count());
        assert!(report.minimized_score >= report.threshold, "{report:?}");
        assert!(min.packet_count() >= 4, "cannot shrink below the threshold");
    }

    #[test]
    fn budget_is_respected() {
        let times: Vec<u64> = (0..200).map(|i| i * 20).collect();
        let genome = genome_with(&times);
        let cfg = MinimizeConfig {
            max_evaluations: 10,
            ..Default::default()
        };
        let (_, report) = minimize_traffic(&WindowEvaluator, &genome, &cfg);
        assert!(report.evaluations <= 10, "{report:?}");
    }

    #[test]
    fn empty_genome_is_a_fixed_point() {
        let genome = genome_with(&[]);
        let (min, report) = minimize_traffic(&WindowEvaluator, &genome, &MinimizeConfig::default());
        assert_eq!(min.packet_count(), 0);
        assert_eq!(report.minimized_packets, 0);
    }

    /// Link evaluator scoring how much service is missing from [0, 1s) — an
    /// "outage depth" toy objective that survives quantization.
    struct OutageEvaluator;

    impl Evaluator<LinkGenome> for OutageEvaluator {
        fn evaluate(&self, genome: &LinkGenome) -> EvalOutcome {
            let early = genome
                .timestamps
                .iter()
                .filter(|t| **t < SimTime::from_millis(1_000))
                .count();
            EvalOutcome {
                score: 1.0 / (1.0 + early as f64),
                ..Default::default()
            }
        }
    }

    #[test]
    fn link_minimization_preserves_count_and_threshold() {
        let mut rng = ccfuzz_netsim::rng::SimRng::new(7);
        let genome = LinkGenome::generate(
            2_000,
            SimDuration::from_secs(5),
            SimDuration::from_millis(50),
            &mut rng,
        );
        let cfg = MinimizeConfig {
            retain_fraction: 0.8,
            ..Default::default()
        };
        let (min, report) = minimize_link(&OutageEvaluator, &genome, &cfg);
        assert_eq!(min.packet_count(), genome.packet_count());
        assert!(report.minimized_score >= report.threshold, "{report:?}");
        assert_eq!(report.passes, ["quantize-100ms: accepted (score 0.002049)"]);
        min.validate().unwrap();
    }
}
