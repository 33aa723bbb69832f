//! Golden behaviour digests for the simulator hot path.
//!
//! The calendar/pool/dispatch overhaul promises **byte-identical**
//! behaviour: the bucketed event calendar pops in the exact `(time, seq)`
//! order the binary heap did, the packet pool and inline SACK lists change
//! only allocation, and enum dispatch runs the very same algorithm code.
//! These constants were recorded by `digest_probe` on the pre-optimization
//! engine (BinaryHeap calendar, boxed trait-object controllers everywhere);
//! any drift here means the "optimization" changed simulation semantics and
//! silently invalidated every committed corpus fixture and paper figure.
//!
//! If the digest contract is ever changed *deliberately* (e.g. new fields
//! mixed into `RunStats::digest`), regenerate with:
//! `cargo run --release -p ccfuzz-bench --bin digest_probe`.

use cc_fuzz::cca::{CcaDispatch, CcaKind};
use cc_fuzz::fuzz::campaign::{paper_sim_base, Campaign};
use cc_fuzz::fuzz::fuzzer::GaParams;
use cc_fuzz::fuzz::scenario::{FlowGene, ScenarioGenome};
use cc_fuzz::fuzz::workload::WorkloadGenome;
use cc_fuzz::netsim::queue::Qdisc;
use cc_fuzz::netsim::sim::{run_multi_flow_simulation, run_simulation, FlowSpec};
use cc_fuzz::netsim::time::{SimDuration, SimTime};
use cc_fuzz::netsim::trace::TrafficTrace;
use cc_fuzz::netsim::workload::{ArrivalConfig, ArrivalProcess, SizeDistribution};

/// Pre-overhaul digests of the paper scenario (5 s, clean 12 Mbps link) per
/// CCA, recorded at the last commit before the hot-path rewrite.
const GOLDEN_SINGLE_FLOW: [(CcaKind, u64); 4] = [
    (CcaKind::Reno, 0xa0b7528c22e43bf9),
    (CcaKind::Cubic, 0xfa4efb4bb1d247a7),
    (CcaKind::Bbr, 0x4a61538fb03729b0),
    (CcaKind::Vegas, 0xa576cfca44842db8),
];

/// Pre-overhaul digest of the mixed-CCA fairness scenario below.
const GOLDEN_FAIRNESS: u64 = 0x39b924d4669c7e73;

/// Digest of the `bbr,bbr,reno,cubic` fairness genome below, run through
/// `SimEvaluator` under the fairness campaign preset. Two BBR flows share
/// the bottleneck, so BBR's cwnd-save/restore and ProbeRTT paths are
/// pinned in the multi-flow engine.
const GOLDEN_MULTI_BBR_FAIRNESS: u64 = 0x27d66afbdb58bc4a;

/// Digest of the workload genome below, run through `SimEvaluator` under
/// the workload campaign preset: arrivals, slab recycling, FCT
/// accounting and the elephant mix.
const GOLDEN_WORKLOAD: u64 = 0x0ae7b9a81d3fcb8a;

/// Digests of the paper scenario behind a default RED gateway with ECN on,
/// per CCA, recorded when the qdisc layer landed. Drift here means the
/// RED marking path (or a CCA's ECN response) changed behaviour.
const GOLDEN_RED_ECN: [(CcaKind, u64); 7] = [
    (CcaKind::Reno, 0x430be881e43794ef),
    (CcaKind::Cubic, 0x3573443e092800a6),
    (CcaKind::CubicNs3Buggy, 0x3573443e092800a6),
    (CcaKind::Bbr, 0x26710c020b7b19dd),
    (CcaKind::BbrProbeRttOnRto, 0x01f69a2e67a07e40),
    (CcaKind::Vegas, 0xb85670175273f72e),
    (CcaKind::Dctcp, 0x174ee49375e2cf0d),
];

/// Digests behind a default CoDel gateway with ECN on, per CCA.
const GOLDEN_CODEL_ECN: [(CcaKind, u64); 7] = [
    (CcaKind::Reno, 0xe2b7e5f61e12bd3f),
    (CcaKind::Cubic, 0x0d8fdbee39375cce),
    (CcaKind::CubicNs3Buggy, 0x0d8fdbee39375cce),
    (CcaKind::Bbr, 0xfef64d4f6910e639),
    (CcaKind::BbrProbeRttOnRto, 0xfef64d4f6910e639),
    (CcaKind::Vegas, 0x7a7ab36b84a02c2b),
    (CcaKind::Dctcp, 0x06da2e4e3ea19ff1),
];

fn fairness_scenario_specs() -> Vec<FlowSpec<CcaDispatch>> {
    vec![
        FlowSpec {
            cc: CcaKind::Bbr.build_dispatch(10),
            start: SimTime::ZERO,
            stop: None,
        },
        FlowSpec {
            cc: CcaKind::Reno.build_dispatch(10),
            start: SimTime::from_millis(500),
            stop: Some(SimTime::from_secs_f64(4.0)),
        },
        FlowSpec {
            cc: CcaKind::Cubic.build_dispatch(10),
            start: SimTime::from_secs_f64(1.0),
            stop: None,
        },
    ]
}

fn multi_bbr_fairness() -> (Campaign, ScenarioGenome) {
    let ccas = vec![CcaKind::Bbr, CcaKind::Bbr, CcaKind::Reno, CcaKind::Cubic];
    let duration = SimDuration::from_secs(5);
    let campaign = Campaign::paper_fairness(ccas.clone(), duration, GaParams::quick());
    let flow = |cca, start_ms, stop_ms: Option<u64>| FlowGene {
        cca,
        start: SimTime::from_millis(start_ms),
        stop: stop_ms.map(SimTime::from_millis),
    };
    let genome = ScenarioGenome {
        flows: vec![
            flow(CcaKind::Bbr, 0, None),
            flow(CcaKind::Bbr, 250, None),
            flow(CcaKind::Reno, 500, Some(4_000)),
            flow(CcaKind::Cubic, 1_000, None),
        ],
        duration,
        max_flows: campaign.max_flows,
        cca_pool: ccas,
        traffic: None,
        min_flows: 2,
        qdisc: None,
    };
    (campaign, genome)
}

fn workload() -> (Campaign, WorkloadGenome) {
    let pool = vec![CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr];
    let duration = SimDuration::from_secs(3);
    let campaign =
        Campaign::paper_workload(CcaKind::Reno, pool.clone(), 3, duration, GaParams::quick());
    let genome = WorkloadGenome {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::OnOff {
                rate_per_sec: 60.0,
                mean_on_secs: 0.5,
                mean_off_secs: 0.25,
            },
            size: SizeDistribution {
                shape: 1.2,
                min_packets: 2,
                max_packets: 1_500,
            },
            mice_threshold_packets: 32,
            max_concurrent: 32,
            max_arrivals: 50_000,
        },
        elephants: vec![
            FlowGene::whole_run(CcaKind::Reno),
            FlowGene {
                cca: CcaKind::Cubic,
                start: SimTime::from_millis(800),
                stop: Some(SimTime::from_millis(2_500)),
            },
        ],
        max_elephants: campaign.max_flows,
        cca_pool: pool,
        duration,
    };
    (campaign, genome)
}

#[test]
fn paper_scenario_digests_match_pre_optimization_engine() {
    for (kind, golden) in GOLDEN_SINGLE_FLOW {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        let result = run_simulation(cfg, kind.build_dispatch(10));
        assert_eq!(
            result.stats.digest(),
            golden,
            "digest drift for {} — the hot-path overhaul changed behaviour",
            kind.name()
        );
    }
}

#[test]
fn fairness_scenario_digest_matches_pre_optimization_engine() {
    let duration = SimDuration::from_secs(5);
    let mut cfg = paper_sim_base(duration);
    cfg.record_events = false;
    let injections: Vec<SimTime> = (0..800).map(|i| SimTime::from_micros(i * 6_000)).collect();
    cfg.cross_traffic = TrafficTrace::new(injections, duration);
    let result = run_multi_flow_simulation(cfg, fairness_scenario_specs());
    assert_eq!(
        result.stats.digest(),
        GOLDEN_FAIRNESS,
        "fairness digest drift — multi-flow hot path changed behaviour"
    );
}

#[test]
fn multi_bbr_fairness_digest_matches_recorded_constant() {
    let (campaign, genome) = multi_bbr_fairness();
    let result = campaign.evaluator().simulate_scenario(&genome, false);
    assert_eq!(
        result.stats.digest(),
        GOLDEN_MULTI_BBR_FAIRNESS,
        "multi-BBR fairness digest drift"
    );
}

#[test]
fn workload_digest_matches_recorded_constant() {
    let (campaign, genome) = workload();
    let result = campaign.evaluator().simulate(&genome, false);
    assert!(result.stats.workload().is_some_and(|w| w.spawned > 0));
    assert_eq!(
        result.stats.digest(),
        GOLDEN_WORKLOAD,
        "workload digest drift"
    );
}

#[test]
fn red_ecn_digests_match_recorded_constants() {
    for (kind, golden) in GOLDEN_RED_ECN {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        cfg.qdisc = Qdisc::red_default(100);
        cfg.ecn_enabled = true;
        let result = run_simulation(cfg, kind.build_dispatch(10));
        assert_eq!(
            result.stats.digest(),
            golden,
            "RED+ECN digest drift for {}",
            kind.name()
        );
    }
}

#[test]
fn codel_ecn_digests_match_recorded_constants() {
    for (kind, golden) in GOLDEN_CODEL_ECN {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        cfg.qdisc = Qdisc::codel_default();
        cfg.ecn_enabled = true;
        let result = run_simulation(cfg, kind.build_dispatch(10));
        assert_eq!(
            result.stats.digest(),
            golden,
            "CoDel+ECN digest drift for {}",
            kind.name()
        );
    }
}

#[test]
fn aqm_digests_differ_from_drop_tail() {
    // The AQM gateways must actually change behaviour (otherwise the golden
    // constants above would silently pin a no-op), while the drop-tail
    // digests stay exactly at their pre-qdisc values (asserted by
    // `paper_scenario_digests_match_pre_optimization_engine`).
    for (kind, golden) in GOLDEN_SINGLE_FLOW {
        let red = GOLDEN_RED_ECN.iter().find(|(k, _)| *k == kind).unwrap().1;
        let codel = GOLDEN_CODEL_ECN.iter().find(|(k, _)| *k == kind).unwrap().1;
        assert_ne!(golden, red, "{}: RED behaves like drop-tail", kind.name());
        assert_ne!(
            golden,
            codel,
            "{}: CoDel behaves like drop-tail",
            kind.name()
        );
    }
}

#[test]
fn golden_digests_stable_across_repeated_runs() {
    // Belt and braces: the digest is a pure function of the scenario.
    let run = || {
        let mut cfg = paper_sim_base(SimDuration::from_secs(5));
        cfg.record_events = false;
        run_simulation(cfg, CcaKind::Reno.build_dispatch(10))
            .stats
            .digest()
    };
    assert_eq!(run(), run());
    assert_eq!(run(), GOLDEN_SINGLE_FLOW[0].1);
}
