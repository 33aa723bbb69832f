//! Internal diagnostic: run BBR over a clean 12 Mbps link and dump its state
//! transitions, round counter and bandwidth estimate over time.

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::paper_sim_base;
use ccfuzz_netsim::sim::run_simulation;
use ccfuzz_netsim::stats::TransportEvent;
use ccfuzz_netsim::time::SimDuration;

fn main() {
    let mut cfg = paper_sim_base(SimDuration::from_secs(5));
    cfg.record_events = true;
    let mss = cfg.mss;
    let result = run_simulation(cfg, CcaKind::Bbr.build_dispatch(10));
    let f = result.stats.flow();
    println!(
        "delivered={} tx={} retx={} lost={} rtos={} goodput={:.2}Mbps",
        f.delivered_packets,
        f.transmissions,
        f.retransmissions,
        f.marked_lost,
        f.rto_count,
        result.average_goodput_bps(mss) / 1e6
    );
    let mut shown = 0;
    for rec in &result.stats.transport {
        if let TransportEvent::Cc { detail } = &rec.event {
            if shown < 200 {
                println!("{:>9.4}s  {}", rec.at.as_secs_f64(), detail);
                shown += 1;
            }
        }
    }
}
