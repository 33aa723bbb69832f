//! Timing wrappers around the library's evaluation and CCA entry points.
//!
//! [`TimingEvaluator`] implements the public `Evaluator` trait by calling
//! `SimEvaluator::simulate_*` and the `EvalOutcome::from_*result*` scorers
//! separately, so the simulator and the scorer each get their own span. It
//! returns exactly what `SimEvaluator` would: same simulation, same scorer.
//!
//! [`TimingCca`] wraps a `CcaDispatch`. It counts every callback and times
//! one call in [`TIME_EVERY`], which keeps the clock reads from dominating
//! calls that take tens of nanoseconds. It runs only on a sample of the
//! genomes a workload evaluated, after the timed work, and its run must
//! reproduce the plain run's behaviour digest.

use crate::spans::Tracer;
use ccfuzz_cca::CcaDispatch;
use ccfuzz_core::evaluate::{EvalOutcome, EvalScratch, Evaluator, SimEvaluator};
use ccfuzz_core::genome::{Genome, LinkGenome, TrafficGenome};
use ccfuzz_core::scenario::ScenarioGenome;
use ccfuzz_core::scoring::{ScoreScratch, TraceScoreInputs};
use ccfuzz_netsim::cc::{CcContext, CongestionControl, CongestionSignal, RateSample};
use ccfuzz_netsim::config::SimConfig;
use ccfuzz_netsim::link::LinkModel;
use ccfuzz_netsim::sim::{FlowSpec, SimResult, Simulation};
use ccfuzz_netsim::trace::TrafficTrace;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A genome type whose evaluation the benchmark can split into simulate and
/// score, and whose scenario it can rebuild around a [`TimingCca`].
pub trait Traced: Genome + Clone + Send + Sync {
    fn simulate(ev: &SimEvaluator, g: &Self) -> SimResult;
    fn simulate_reusing(ev: &SimEvaluator, g: &Self, scratch: &mut EvalScratch) -> SimResult;
    fn score(ev: &SimEvaluator, g: &Self, r: &SimResult, s: &mut ScoreScratch) -> EvalOutcome;
    /// The configuration and flows `SimEvaluator` builds for `g`, with every
    /// flow's CCA wrapped in a [`TimingCca`].
    fn timed_scenario(ev: &SimEvaluator, g: &Self) -> (SimConfig, Vec<FlowSpec<TimingCca>>);
}

fn single_flow(ev: &SimEvaluator, cfg: &SimConfig) -> Vec<FlowSpec<TimingCca>> {
    vec![FlowSpec {
        cc: TimingCca(ev.cca.build_dispatch(cfg.initial_cwnd)),
        start: cfg.flow_start,
        stop: None,
    }]
}

impl Traced for TrafficGenome {
    fn simulate(ev: &SimEvaluator, g: &Self) -> SimResult {
        ev.simulate_traffic(g, false)
    }
    fn simulate_reusing(ev: &SimEvaluator, g: &Self, scratch: &mut EvalScratch) -> SimResult {
        ev.simulate_traffic_reusing(g, scratch)
    }
    fn score(ev: &SimEvaluator, g: &Self, r: &SimResult, s: &mut ScoreScratch) -> EvalOutcome {
        let inputs = TraceScoreInputs {
            traffic_packets: g.packet_count(),
            traffic_max_packets: g.max_packets,
            traffic_dropped: r.stats.cross_dropped,
        };
        EvalOutcome::from_result_reusing(&ev.scoring, r, ev.base.mss, Some(inputs), s)
    }
    fn timed_scenario(ev: &SimEvaluator, g: &Self) -> (SimConfig, Vec<FlowSpec<TimingCca>>) {
        let mut cfg = ev.base.clone();
        cfg.record_events = false;
        cfg.link = LinkModel::FixedRate {
            rate_bps: ev.link_rate_bps,
        };
        cfg.cross_traffic = g.to_trace();
        cfg.duration = g.duration;
        let specs = single_flow(ev, &cfg);
        (cfg, specs)
    }
}

impl Traced for LinkGenome {
    fn simulate(ev: &SimEvaluator, g: &Self) -> SimResult {
        ev.simulate_link(g, false)
    }
    fn simulate_reusing(ev: &SimEvaluator, g: &Self, scratch: &mut EvalScratch) -> SimResult {
        ev.simulate_link_reusing(g, scratch)
    }
    fn score(ev: &SimEvaluator, _g: &Self, r: &SimResult, s: &mut ScoreScratch) -> EvalOutcome {
        EvalOutcome::from_result_reusing(&ev.scoring, r, ev.base.mss, None, s)
    }
    fn timed_scenario(ev: &SimEvaluator, g: &Self) -> (SimConfig, Vec<FlowSpec<TimingCca>>) {
        let mut cfg = ev.base.clone();
        cfg.record_events = false;
        cfg.link = LinkModel::TraceDriven {
            trace: g.to_trace(),
        };
        cfg.cross_traffic = TrafficTrace::empty(g.duration);
        cfg.duration = g.duration;
        let specs = single_flow(ev, &cfg);
        (cfg, specs)
    }
}

impl Traced for ScenarioGenome {
    fn simulate(ev: &SimEvaluator, g: &Self) -> SimResult {
        ev.simulate_scenario(g, false)
    }
    fn simulate_reusing(ev: &SimEvaluator, g: &Self, scratch: &mut EvalScratch) -> SimResult {
        ev.simulate_scenario_reusing(g, scratch)
    }
    fn score(ev: &SimEvaluator, g: &Self, r: &SimResult, s: &mut ScoreScratch) -> EvalOutcome {
        EvalOutcome::from_scenario_result_reusing(&ev.scoring, r, ev.base.mss, g, s)
    }
    fn timed_scenario(ev: &SimEvaluator, g: &Self) -> (SimConfig, Vec<FlowSpec<TimingCca>>) {
        let mut cfg = ev.base.clone();
        cfg.record_events = false;
        cfg.link = LinkModel::FixedRate {
            rate_bps: ev.link_rate_bps,
        };
        cfg.cross_traffic = g
            .traffic
            .as_ref()
            .map(|t| t.to_trace())
            .unwrap_or_else(|| TrafficTrace::empty(g.duration));
        cfg.duration = g.duration;
        if let Some(gene) = &g.qdisc {
            cfg.qdisc = gene.discipline;
            cfg.ecn_enabled = gene.ecn;
        }
        let specs = g
            .flows
            .iter()
            .map(|f| FlowSpec {
                cc: TimingCca(f.cca.build_dispatch(cfg.initial_cwnd)),
                start: f.start,
                stop: f.stop,
            })
            .collect();
        (cfg, specs)
    }
}

thread_local! {
    static SCORE: RefCell<ScoreScratch> = RefCell::new(ScoreScratch::default());
}

/// Evaluator wrapper recording `evaluate` → {`netsim.simulate`,
/// `evaluate.score`} spans and keeping a sample of evaluated genomes.
pub struct TimingEvaluator<'t, G> {
    pub inner: SimEvaluator,
    tracer: &'t Tracer,
    parent: AtomicU64,
    count: AtomicU64,
    sample_every: u64,
    max_samples: usize,
    samples: Mutex<Vec<G>>,
}

impl<'t, G: Traced> TimingEvaluator<'t, G> {
    pub fn new(
        inner: SimEvaluator,
        tracer: &'t Tracer,
        sample_every: u64,
        max_samples: usize,
    ) -> Self {
        TimingEvaluator {
            inner,
            tracer,
            parent: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sample_every: sample_every.max(1),
            max_samples,
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Sets the span that evaluations are recorded under.
    pub fn set_parent(&self, parent: u64) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    /// The sampled genomes, in evaluation order.
    pub fn take_samples(&self) -> Vec<G> {
        std::mem::take(&mut *self.samples.lock().expect("sample list poisoned"))
    }

    fn run(&self, genome: &G, scratch: Option<&mut EvalScratch>) -> EvalOutcome {
        let tracer = self.tracer;
        let eval = tracer.open("evaluate", self.parent.load(Ordering::Relaxed));
        let sim = tracer.open("netsim.simulate", eval.id);
        let (result, scratch) = match scratch {
            Some(s) => (G::simulate_reusing(&self.inner, genome, s), Some(s)),
            None => (G::simulate(&self.inner, genome), None),
        };
        let sim_end = tracer.now();
        let score = tracer.open("evaluate.score", eval.id);
        let outcome = SCORE.with(|s| G::score(&self.inner, genome, &result, &mut s.borrow_mut()));
        let end = tracer.now();

        let st = &result.stats;
        let tx: u64 = st.flows.iter().map(|f| f.summary.transmissions).sum();
        let drops: u64 =
            st.flows.iter().map(|f| f.summary.queue_drops).sum::<u64>() + st.cross_dropped;
        let rto: u64 = st.flows.iter().map(|f| f.summary.rto_count).sum();
        tracer.record(
            sim,
            sim_end,
            vec![
                ("events", st.events_processed as f64),
                ("tx", tx as f64),
                ("drops", drops as f64),
                ("rto", rto as f64),
            ],
        );
        tracer.record(score, end, Vec::new());
        tracer.record(eval, end, vec![("score", outcome.score)]);
        if let Some(s) = scratch {
            s.sim.recycle_stats(result.stats);
        }

        let n = self.count.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(self.sample_every) {
            let mut samples = self.samples.lock().expect("sample list poisoned");
            if samples.len() < self.max_samples {
                samples.push(genome.clone());
            }
        }
        outcome
    }
}

impl<G: Traced> Evaluator<G> for TimingEvaluator<'_, G> {
    fn evaluate(&self, genome: &G) -> EvalOutcome {
        self.run(genome, None)
    }

    fn evaluate_reusing(&self, genome: &G, scratch: &mut EvalScratch) -> EvalOutcome {
        self.run(genome, Some(scratch))
    }
}

/// One callback in this many is timed.
pub const TIME_EVERY: u64 = 64;

thread_local! {
    static CCA_CALLS: Cell<u64> = const { Cell::new(0) };
    static CCA_TIMED: Cell<u64> = const { Cell::new(0) };
    static CCA_TIMED_NS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn counted<T>(f: impl FnOnce() -> T) -> T {
    let n = CCA_CALLS.with(|c| {
        let n = c.get();
        c.set(n + 1);
        n
    });
    if !n.is_multiple_of(TIME_EVERY) {
        return f();
    }
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    CCA_TIMED.with(|c| c.set(c.get() + 1));
    CCA_TIMED_NS.with(|c| c.set(c.get() + ns));
    out
}

/// Reads and resets this thread's CCA counters: (calls, timed calls,
/// nanoseconds inside the timed calls).
pub fn take_cca_counters() -> (u64, u64, u64) {
    (
        CCA_CALLS.with(|c| c.replace(0)),
        CCA_TIMED.with(|c| c.replace(0)),
        CCA_TIMED_NS.with(|c| c.replace(0)),
    )
}

/// Median cost of one empty timed region, subtracted from timed calls.
pub fn timer_overhead_ns() -> f64 {
    let mut costs: Vec<u64> = (0..2001)
        .map(|_| {
            let started = Instant::now();
            started.elapsed().as_nanos() as u64
        })
        .collect();
    costs.sort_unstable();
    costs[costs.len() / 2] as f64
}

/// Counting, sampling-timer wrapper around the enum-dispatched CCA.
#[derive(Debug)]
pub struct TimingCca(pub CcaDispatch);

impl CongestionControl for TimingCca {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init(&mut self, ctx: &CcContext) {
        counted(|| self.0.init(ctx))
    }
    fn on_ack(&mut self, ctx: &CcContext, rs: &RateSample) {
        counted(|| self.0.on_ack(ctx, rs))
    }
    fn on_congestion(&mut self, ctx: &CcContext, signal: CongestionSignal) {
        counted(|| self.0.on_congestion(ctx, signal))
    }
    fn on_ecn(&mut self, ctx: &CcContext, ce_acked: u64) {
        counted(|| self.0.on_ecn(ctx, ce_acked))
    }
    fn on_exit_recovery(&mut self, ctx: &CcContext) {
        counted(|| self.0.on_exit_recovery(ctx))
    }
    fn cwnd(&self) -> u64 {
        counted(|| self.0.cwnd())
    }
    fn ssthresh(&self) -> u64 {
        counted(|| self.0.ssthresh())
    }
    fn pacing_rate_bps(&self) -> Option<f64> {
        counted(|| self.0.pacing_rate_bps())
    }
    fn debug_state(&self) -> String {
        self.0.debug_state()
    }
    fn take_events(&mut self) -> Vec<String> {
        self.0.take_events()
    }
    fn set_event_recording(&mut self, enabled: bool) {
        self.0.set_event_recording(enabled)
    }
}

/// Totals of the CCA pass over a workload's sampled genomes.
#[derive(Default)]
pub struct CcaTotals {
    pub genomes: u64,
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: u64,
    pub timer_overhead_ns: f64,
    /// Plain (unwrapped) simulate time of the same genomes.
    pub plain_sim_ns: u64,
    pub digest_mismatches: u64,
}

impl CcaTotals {
    /// Re-simulates each sampled genome plainly and with every CCA wrapped,
    /// under a `cca.sample` span (skipped when the tracer is off).
    pub fn measure<G: Traced>(&mut self, tracer: &Tracer, ev: &SimEvaluator, genomes: &[G]) {
        if !tracer.is_on() {
            return;
        }
        if self.timer_overhead_ns == 0.0 {
            self.timer_overhead_ns = timer_overhead_ns();
        }
        tracer.span("cca.sample", 0, |parent| {
            for g in genomes {
                let started = Instant::now();
                let plain = G::simulate(ev, g);
                self.plain_sim_ns += started.elapsed().as_nanos() as u64;
                let wrapped = tracer.span("cca.wrapped_simulate", parent, |_| {
                    let (cfg, specs) = G::timed_scenario(ev, g);
                    take_cca_counters();
                    Simulation::new_multi(cfg, specs).run()
                });
                let (calls, timed, timed_ns) = take_cca_counters();
                self.genomes += 1;
                self.calls += calls;
                self.timed += timed;
                self.timed_ns += timed_ns;
                if wrapped.stats.digest() != plain.stats.digest() {
                    self.digest_mismatches += 1;
                }
            }
        });
    }

    pub fn counters(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("cca.genomes", self.genomes as f64),
            ("cca.calls", self.calls as f64),
            ("cca.timed_calls", self.timed as f64),
            ("cca.timed_ns", self.timed_ns as f64),
            ("cca.timer_overhead_ns", self.timer_overhead_ns),
            ("cca.plain_sim_ns", self.plain_sim_ns as f64),
            ("cca.digest_mismatches", self.digest_mismatches as f64),
        ]
    }
}
