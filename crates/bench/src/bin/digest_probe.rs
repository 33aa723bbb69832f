//! Prints the behaviour digests of the golden scenarios used by
//! `tests/golden_digests.rs`. Run it whenever the digest contract is
//! *intentionally* changed to regenerate the committed constants.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::paper_sim_base;
use ccfuzz_netsim::queue::Qdisc;
use ccfuzz_netsim::sim::{run_multi_flow_simulation, run_simulation, FlowSpec};
use ccfuzz_netsim::time::{SimDuration, SimTime};
use ccfuzz_netsim::trace::TrafficTrace;

fn main() {
    let duration = SimDuration::from_secs(5);
    for kind in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas] {
        let mut cfg = paper_sim_base(duration);
        cfg.record_events = false;
        let result = run_simulation(cfg, kind.build_dispatch(10));
        println!("single/{}: {:#018x}", kind.name(), result.stats.digest());
    }

    // Mixed-CCA fairness scenario with staggered schedules and cross traffic.
    let mut cfg = paper_sim_base(duration);
    cfg.record_events = false;
    let injections: Vec<SimTime> = (0..800).map(|i| SimTime::from_micros(i * 6_000)).collect();
    cfg.cross_traffic = TrafficTrace::new(injections, duration);
    let specs = vec![
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
    ];
    let result = run_multi_flow_simulation(cfg, specs);
    println!("fairness/bbr-reno-cubic: {:#018x}", result.stats.digest());

    // AQM gateways with ECN on, every CCA: the golden constants for the
    // RED/CoDel marking paths (tests/golden_digests.rs).
    for (label, qdisc) in [
        ("red", Qdisc::red_default(100)),
        ("codel", Qdisc::codel_default()),
    ] {
        for kind in CcaKind::ALL {
            let mut cfg = paper_sim_base(duration);
            cfg.record_events = false;
            cfg.qdisc = qdisc;
            cfg.ecn_enabled = true;
            let result = run_simulation(cfg, kind.build_dispatch(10));
            println!(
                "{label}+ecn/{}: {:#018x}",
                kind.name(),
                result.stats.digest()
            );
        }
    }
}
