//! `perfbench-tracer`: traced in-process replicas of the perfbench
//! workloads.
//!
//! ```text
//! perfbench-tracer hunt     --cca reno --mode traffic --islands 20 --population 25
//!                           --generations 3 --threads 2 --seed 7 [--checkpoint]
//!                           --dir WORK --spans SPANS.jsonl
//! perfbench-tracer daemon   (hunt flags) --workers 2 --dir WORK --spans SPANS.jsonl
//! perfbench-tracer minimize --dir WORK --spans SPANS.jsonl    (WORK/corpus pre-filled)
//! ```
//!
//! `--untraced` runs the same replica with span recording off (and no CCA
//! pass), so the difference in wall time is what the tracing costs.
//!
//! Each replica drives the same public library entry points the `ccfuzz` /
//! `ccfuzzd` binaries drive, with every call timed from here: the fuzzer
//! runs over a [`timing::TimingEvaluator`], checkpoints and corpus calls sit
//! in their own spans, and the daemon replica pushes real protocol frames
//! through memory buffers between per-shard fuzzers and a
//! `ShardCoordinator`. Spans go to `--spans` as JSON lines; the last stdout
//! line is one JSON object with the run's counters and its finding payload,
//! which must equal the untraced binary's payload byte for byte.

mod spans;
mod timing;

use ccfuzz_cca::CcaKind;
use ccfuzz_core::campaign::{Campaign, FuzzMode};
use ccfuzz_core::checkpoint::SnapshotPayload;
use ccfuzz_core::fuzzer::{Fuzzer, FuzzerSnapshot, RunControl, StopReason};
use ccfuzz_core::genome::TrafficGenome;
use ccfuzz_core::scenario::ScenarioGenome;
use ccfuzz_core::shard::{
    shard_ranges, GenerationOutcome, MigrantBatch, ShardCoordinator, ShardReport,
};
use ccfuzz_corpus::checkpoint::{
    hunt_config_digest, CampaignCheckpoint, TelemetryCounters, CHECKPOINT_SCHEMA,
};
use ccfuzz_corpus::finding::{finding_id, Finding, GenomePayload};
use ccfuzz_corpus::hunt::HuntConfig;
use ccfuzz_corpus::minimize::{
    minimize_finding, minimize_link, minimize_traffic, MinimizeConfig, MinimizeReport,
};
use ccfuzz_corpus::proto::{
    decode, recv_frame, send_frame, CheckpointDone, Evaluate, Finish, Proceed, CHECKPOINT_DONE,
    EVALUATE, FINAL, FINISH, INBOUND, MIGRANTS, PROCEED, REPORT,
};
use ccfuzz_corpus::replay::replay_findings;
use ccfuzz_corpus::signature::BehaviorSignature;
use ccfuzz_corpus::store::{Corpus, CorpusConfig};
use ccfuzz_corpus::worker::{WorkerCheckpoint, WORKER_CHECKPOINT_SCHEMA};
use ccfuzz_netsim::rng::SimRng;
use ccfuzz_netsim::time::SimDuration;
use ccfuzz_obs::{write_atomic, HuntTelemetry, Phase};
use serde::{Deserialize, Serialize};
use spans::{json_number, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use timing::{CcaTotals, TimingEvaluator, Traced};

/// Every this many evaluations one genome is kept for the CCA pass.
const SAMPLE_EVERY: u64 = 64;
/// At most this many genomes per evaluator go through the CCA pass.
const MAX_SAMPLES: usize = 24;

struct Opts {
    cca: CcaKind,
    mode: FuzzMode,
    flows: Option<Vec<CcaKind>>,
    islands: usize,
    population: usize,
    generations: u32,
    seconds: u64,
    threads: usize,
    seed: u64,
    checkpoint: bool,
    untraced: bool,
    workers: usize,
    dir: PathBuf,
    spans: PathBuf,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: invalid value `{v}`")),
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let cca_name = value(args, "--cca").unwrap_or("reno");
    let cca = CcaKind::from_name(cca_name).ok_or_else(|| format!("unknown CCA `{cca_name}`"))?;
    let mode_name = value(args, "--mode").unwrap_or("traffic");
    let mode =
        FuzzMode::from_name(mode_name).ok_or_else(|| format!("unknown mode `{mode_name}`"))?;
    let flows = value(args, "--flows")
        .map(CcaKind::parse_list)
        .transpose()?;
    Ok(Opts {
        cca,
        mode,
        flows,
        islands: num(args, "--islands", 20)?,
        population: num(args, "--population", 25)?,
        generations: num(args, "--generations", 3)?,
        seconds: num(args, "--seconds", 3)?,
        threads: num(args, "--threads", 2)?,
        seed: num(args, "--seed", 1)?,
        checkpoint: args.iter().any(|a| a == "--checkpoint"),
        untraced: args.iter().any(|a| a == "--untraced"),
        workers: num(args, "--workers", 2)?,
        dir: PathBuf::from(value(args, "--dir").ok_or("--dir is required")?),
        spans: PathBuf::from(value(args, "--spans").ok_or("--spans is required")?),
    })
}

/// The hunt configuration `ccfuzz hunt` / `ccfuzz submit` resolve from the
/// same flags.
fn hunt_config(o: &Opts) -> HuntConfig {
    let mut config = HuntConfig::quick(o.cca, o.mode, o.generations, o.seed);
    config.duration = SimDuration::from_secs(o.seconds.max(1));
    if let Some(flows) = &o.flows {
        config.flow_ccas = flows.clone();
    }
    config.ga.threads = o.threads;
    config.ga.islands = o.islands;
    config.ga.population_per_island = o.population;
    config
}

/// What a replica reports besides its spans.
struct Output {
    counters: Vec<(&'static str, f64)>,
    payload: Option<String>,
    wall_ns: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Writes a campaign checkpoint as `CampaignCheckpoint::write_atomic` does
/// (pretty JSON, newline, `obs::write_atomic`), with encode and write in
/// separate spans.
#[allow(clippy::too_many_arguments)]
fn persist(
    tracer: &Tracer,
    parent: u64,
    path: &Path,
    config: &HuntConfig,
    corpus_dir: &str,
    tel: &HuntTelemetry,
    state: SnapshotPayload,
    completed: bool,
) -> Result<(), String> {
    let open = tracer.open("checkpoint.write", parent);
    let ck = CampaignCheckpoint {
        schema: CHECKPOINT_SCHEMA,
        config: config.clone(),
        config_digest: hunt_config_digest(config),
        corpus_dir: corpus_dir.to_string(),
        checkpoint_every: 1,
        panic_budget: Some(100),
        completed,
        telemetry: TelemetryCounters {
            evaluations: state.evaluations() as u64,
            operators: tel.metrics.operator_snapshot(),
            panics_caught: state.panics_caught(),
            checkpoints_written: tel.metrics.checkpoints_written.get() + 1,
            checkpoint_bytes: tel.metrics.checkpoint_bytes.get(),
            corpus_inserted: tel.metrics.corpus_inserted.get(),
            corpus_deduplicated: tel.metrics.corpus_deduplicated.get(),
        },
        state,
    };
    let bytes = write_pretty(tracer, open.id, path, &ck)?;
    tel.metrics.checkpoints_written.inc();
    tel.metrics.checkpoint_bytes.add(bytes);
    tracer.close(open, vec![("bytes", bytes as f64)]);
    Ok(())
}

/// Pretty-JSON encode (span `checkpoint.encode`) then atomic write (span
/// `checkpoint.io`); returns the bytes written.
fn write_pretty<T: Serialize>(
    tracer: &Tracer,
    parent: u64,
    path: &Path,
    value: &T,
) -> Result<u64, String> {
    let json = tracer
        .span("checkpoint.encode", parent, |_| {
            serde_json::to_string_pretty(value)
        })
        .map_err(err)?;
    tracer
        .span("checkpoint.io", parent, |_| {
            write_atomic(path, (json + "\n").as_bytes())
        })
        .map_err(err)
}

fn phase_counters(tel: &HuntTelemetry) -> Vec<(&'static str, f64)> {
    let p = &tel.profiler;
    let ops = &tel.metrics.operators;
    vec![
        ("phase.generate_ns", p.nanos(Phase::Generate) as f64),
        ("phase.evaluate_ns", p.nanos(Phase::Evaluate) as f64),
        ("phase.select_ns", p.nanos(Phase::Select) as f64),
        ("phase.mutate_ns", p.nanos(Phase::Mutate) as f64),
        ("ops.crossover", ops.crossover.get() as f64),
        ("ops.mutation", ops.mutation.get() as f64),
        ("ops.migrant", ops.migrant.get() as f64),
    ]
}

/// `ccfuzz hunt`, in process: corpus open/lock, campaign build, the fuzzer
/// over a timing evaluator (with per-generation checkpoints when asked),
/// the final checkpoint, finding construction and the corpus insert.
fn run_hunt<G: Traced>(
    o: &Opts,
    tracer: &Tracer,
    init: &dyn Fn(&Campaign, &mut SimRng) -> G,
    wrap_snapshot: fn(FuzzerSnapshot<G>) -> SnapshotPayload,
    wrap_genome: fn(G) -> GenomePayload,
) -> Result<Output, String> {
    let root = tracer.open("hunt", 0);
    let corpus = tracer
        .span("store.open", root.id, |_| {
            Corpus::open_with(o.dir.join("corpus"), CorpusConfig::default())
        })
        .map_err(err)?;
    let lock = tracer
        .span("store.lock", root.id, |_| corpus.lock())
        .map_err(err)?;
    let config = hunt_config(o);
    let campaign = tracer.span("campaign.build", root.id, |_| config.campaign());
    let tel = HuntTelemetry::new();
    let ev = TimingEvaluator::<G>::new(campaign.evaluator(), tracer, SAMPLE_EVERY, MAX_SAMPLES);
    let ck_path = o.dir.join("checkpoint.json");
    let corpus_dir = corpus.root().display().to_string();

    let fuzz = tracer.open("fuzzer.run", root.id);
    ev.set_parent(fuzz.id);
    let mut fuzzer = {
        let _t = tel.profiler.scope(Phase::Generate);
        Fuzzer::new(campaign.ga, &ev, |rng: &mut SimRng| init(&campaign, rng))
    }
    .with_observer(&tel);
    let mut write_error: Option<String> = None;
    let (result, stop) = {
        let mut on_checkpoint = |snap: FuzzerSnapshot<G>| {
            if let Err(e) = persist(
                tracer,
                fuzz.id,
                &ck_path,
                &config,
                &corpus_dir,
                &tel,
                wrap_snapshot(snap),
                false,
            ) {
                write_error.get_or_insert(e);
            }
        };
        let mut ctl = RunControl {
            shutdown: None,
            checkpoint_every: u32::from(o.checkpoint),
            on_checkpoint: if o.checkpoint {
                Some(&mut on_checkpoint)
            } else {
                None
            },
            panic_budget: Some(100),
        };
        fuzzer.run_controlled(&mut ctl)
    };
    tracer.close(fuzz, Vec::new());
    if let Some(e) = write_error {
        return Err(e);
    }
    if stop != StopReason::Completed {
        return Err(format!("campaign stopped early: {stop:?}"));
    }
    if o.checkpoint {
        persist(
            tracer,
            root.id,
            &ck_path,
            &config,
            &corpus_dir,
            &tel,
            wrap_snapshot(fuzzer.snapshot()),
            true,
        )?;
    }
    let finding = tracer.span("finding.build", root.id, |_| {
        Finding::from_campaign(
            &campaign,
            wrap_genome(result.best_genome.clone()),
            result.best_outcome,
            result.total_evaluations as u64,
        )
    });
    tracer
        .span("store.insert", root.id, |_| corpus.insert(&finding))
        .map_err(err)?;
    tracer
        .span("store.load_all", root.id, |_| corpus.load_all())
        .map_err(err)?;
    drop(lock);
    tracer.close(root, Vec::new());
    let wall_ns = tracer.now();

    let mut cca = CcaTotals::default();
    cca.measure(tracer, &ev.inner, &ev.take_samples());
    let mut counters = phase_counters(&tel);
    counters.extend(cca.counters());
    counters.push(("fuzzer.panics", fuzzer.panics().len() as f64));
    counters.push(("evaluations", result.total_evaluations as f64));
    counters.push(("threads", config.ga.threads as f64));
    counters.push(("generations", config.ga.generations as f64));
    Ok(Output {
        counters,
        payload: Some(serde_json::to_string(&finding).map_err(err)?),
        wall_ns,
    })
}

/// Encodes one protocol frame into memory (span `proto.encode`).
fn encode<T: Serialize + ?Sized>(
    tracer: &Tracer,
    parent: u64,
    kind: &str,
    body: &T,
) -> Result<Vec<u8>, String> {
    let open = tracer.open("proto.encode", parent);
    let mut buf = Vec::new();
    send_frame(&mut buf, kind, body).map_err(err)?;
    tracer.close(
        open,
        vec![
            ("bytes", buf.len() as f64),
            ("final", f64::from(u8::from(kind == FINAL))),
        ],
    );
    Ok(buf)
}

/// Decodes one protocol frame from memory (span `proto.decode`).
fn decode_frame<T: Deserialize>(
    tracer: &Tracer,
    parent: u64,
    want: &str,
    buf: &[u8],
) -> Result<T, String> {
    let open = tracer.open("proto.decode", parent);
    let (kind, body) = recv_frame(&mut &buf[..]).map_err(err)?;
    if kind != want {
        return Err(format!("expected `{want}` frame, got `{kind}`"));
    }
    let msg = decode(&kind, &body)?;
    tracer.close(
        open,
        vec![
            ("bytes", buf.len() as f64),
            ("final", f64::from(u8::from(kind == FINAL))),
        ],
    );
    Ok(msg)
}

/// Sends one frame across the in-memory link and decodes it on the far side.
fn relay<T: Serialize + Deserialize>(
    tracer: &Tracer,
    parent: u64,
    kind: &str,
    body: &T,
) -> Result<T, String> {
    let buf = encode(tracer, parent, kind, body)?;
    decode_frame(tracer, parent, kind, &buf)
}

/// Runs `f` on every shard's fuzzer, one thread per shard, as the worker
/// processes do.
fn per_shard<'e, G, E, T, F>(
    fuzzers: &mut [Fuzzer<'e, G, E>],
    ranges: &[(usize, usize)],
    f: F,
) -> Vec<T>
where
    G: ccfuzz_core::genome::Genome,
    E: ccfuzz_core::evaluate::Evaluator<G>,
    T: Send,
    F: Fn(usize, &mut Fuzzer<'e, G, E>, (usize, usize)) -> T + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = fuzzers
            .iter_mut()
            .zip(ranges)
            .enumerate()
            .map(|(k, (fz, &range))| {
                let f = &f;
                s.spawn(move || f(k, fz, range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    })
}

/// A `ccfuzzd --workers W` hunt, in process: one fuzzer per shard (as each
/// worker builds it), the coordinator's `ShardCoordinator`, and every frame
/// of the generation protocol encoded and decoded through memory. Worker
/// checkpoints are written as `WorkerCheckpoint::write_into` writes them,
/// without pruning older ones.
fn run_daemon<G: Traced + Serialize + Deserialize>(
    o: &Opts,
    tracer: &Tracer,
    init: &dyn Fn(&Campaign, &mut SimRng) -> G,
    wrap_snapshot: fn(FuzzerSnapshot<G>) -> SnapshotPayload,
    unwrap_snapshot: fn(SnapshotPayload) -> Result<FuzzerSnapshot<G>, String>,
    wrap_genome: fn(G) -> GenomePayload,
) -> Result<Output, String> {
    let root = tracer.open("daemon.hunt", 0);
    let corpus = tracer
        .span("store.open", root.id, |_| {
            Corpus::open(o.dir.join("corpus"))
        })
        .map_err(err)?;
    let config = hunt_config(o);
    let campaign = tracer.span("campaign.build", root.id, |_| config.campaign());
    let ranges = shard_ranges(config.ga.islands, o.workers.max(1));
    let evs: Vec<TimingEvaluator<G>> = ranges
        .iter()
        .map(|_| TimingEvaluator::new(campaign.evaluator(), tracer, SAMPLE_EVERY, MAX_SAMPLES))
        .collect();
    let tels: Vec<HuntTelemetry> = ranges.iter().map(|_| HuntTelemetry::new()).collect();
    let worker_dir = o.dir.join("workers");
    std::fs::create_dir_all(&worker_dir).map_err(err)?;

    let fleet = tracer.open("fleet.run", root.id);
    let mut fuzzers: Vec<Fuzzer<G, TimingEvaluator<G>>> =
        tracer.span("fleet.build", fleet.id, |_| {
            evs.iter()
                .zip(&tels)
                .map(|(ev, tel)| {
                    ev.set_parent(fleet.id);
                    Fuzzer::new(campaign.ga, ev, |rng: &mut SimRng| init(&campaign, rng))
                        .with_observer(tel)
                })
                .collect()
        });
    let mut coordinator = ShardCoordinator::<G>::new(config.ga);
    loop {
        let generation = coordinator.next_generation();
        if !coordinator.history().is_empty() && generation >= config.ga.generations {
            break;
        }
        let gen_span = tracer.open("fleet.generation", fleet.id);
        let g = gen_span.id;
        for _ in &ranges {
            relay(tracer, g, EVALUATE, &Evaluate { generation })?;
        }
        let frames = per_shard(&mut fuzzers, &ranges, |_, fz, (start, end)| {
            let report = tracer.span("shard.evaluate", g, |_| fz.shard_evaluate(start, end));
            encode(tracer, g, REPORT, &report)
        });
        let reports = frames
            .into_iter()
            .map(|buf| decode_frame::<ShardReport<G>>(tracer, g, REPORT, &buf?))
            .collect::<Result<Vec<_>, String>>()?;
        let absorbed = tracer.span("shard.absorb", g, |_| coordinator.absorb_reports(&reports))?;
        let migrate = match absorbed.next {
            GenerationOutcome::Completed => {
                tracer.close(gen_span, Vec::new());
                break;
            }
            GenerationOutcome::Evolve { migrate } => migrate,
        };
        let boundary = generation + 1;
        for _ in &ranges {
            relay(
                tracer,
                g,
                PROCEED,
                &Proceed {
                    generation,
                    migrate,
                    checkpoint: true,
                },
            )?;
        }
        per_shard(&mut fuzzers, &ranges, |_, fz, (start, end)| {
            tracer.span("shard.evolve", g, |_| fz.shard_evolve(start, end))
        });
        if migrate {
            let outbound = per_shard(&mut fuzzers, &ranges, |_, fz, (start, end)| {
                encode(tracer, g, MIGRANTS, &fz.shard_collect_migrants(start, end))
            });
            let mut inbound: Vec<Vec<MigrantBatch<G>>> =
                ranges.iter().map(|_| Vec::new()).collect();
            for buf in outbound {
                for batch in decode_frame::<Vec<MigrantBatch<G>>>(tracer, g, MIGRANTS, &buf?)? {
                    let dst = (batch.src_island + 1) % config.ga.islands;
                    let owner = ranges
                        .iter()
                        .position(|&(s, e)| dst >= s && dst < e)
                        .expect("every island has an owner");
                    inbound[owner].push(batch);
                }
            }
            for (fz, batches) in fuzzers.iter_mut().zip(inbound) {
                let batches = relay(tracer, g, INBOUND, &batches)?;
                fz.shard_apply_migrants(batches);
            }
        }
        let digest = hunt_config_digest(&config);
        let written = per_shard(&mut fuzzers, &ranges, |k, fz, _| {
            fz.set_next_generation(boundary);
            let open = tracer.open("checkpoint.write", g);
            let ck = WorkerCheckpoint {
                schema: WORKER_CHECKPOINT_SCHEMA,
                worker: k,
                n_workers: ranges.len(),
                config_digest: digest,
                generation: boundary,
                state: wrap_snapshot(fz.snapshot()),
            };
            let bytes = write_pretty(
                tracer,
                open.id,
                &worker_dir.join(WorkerCheckpoint::file_name(k, boundary)),
                &ck,
            );
            tracer.close(open, vec![("bytes", *bytes.as_ref().unwrap_or(&0) as f64)]);
            bytes
        });
        for bytes in written {
            bytes?;
            relay(
                tracer,
                g,
                CHECKPOINT_DONE,
                &CheckpointDone {
                    generation: boundary,
                },
            )?;
        }
        coordinator.finish_generation();
        tracer.close(gen_span, Vec::new());
    }

    // FINISH → FINAL: every worker ships its whole shard snapshot.
    let next_generation = coordinator.next_generation();
    let finish = tracer.open("fleet.finish", fleet.id);
    for _ in &ranges {
        relay(tracer, finish.id, FINISH, &Finish { next_generation })?;
    }
    let frames = per_shard(&mut fuzzers, &ranges, |_, fz, _| {
        fz.set_next_generation(next_generation);
        encode(tracer, finish.id, FINAL, &wrap_snapshot(fz.snapshot()))
    });
    let mut finals = Vec::with_capacity(ranges.len());
    for (buf, &(start, end)) in frames.into_iter().zip(&ranges) {
        let payload: SnapshotPayload = decode_frame(tracer, finish.id, FINAL, &buf?)?;
        finals.push((start, end, unwrap_snapshot(payload)?));
    }
    let final_snapshot = tracer.span("shard.assemble", finish.id, |_| {
        coordinator.assemble_snapshot(&finals)
    })?;
    let result = coordinator.result()?;
    tracer.close(finish, Vec::new());
    tracer.close(fleet, Vec::new());

    let tel = HuntTelemetry::new();
    let corpus_dir = corpus.root().display().to_string();
    persist(
        tracer,
        root.id,
        &o.dir.join("checkpoint.json"),
        &config,
        &corpus_dir,
        &tel,
        wrap_snapshot(final_snapshot),
        true,
    )?;
    let finding = tracer.span("finding.build", root.id, |_| {
        Finding::from_campaign(
            &campaign,
            wrap_genome(result.best_genome.clone()),
            result.best_outcome,
            result.total_evaluations as u64,
        )
    });
    tracer
        .span("store.insert", root.id, |_| corpus.insert(&finding))
        .map_err(err)?;
    tracer.close(root, Vec::new());
    let wall_ns = tracer.now();

    let mut cca = CcaTotals::default();
    cca.measure(tracer, &evs[0].inner, &evs[0].take_samples());
    let mut counters = cca.counters();
    counters.push(("evaluations", result.total_evaluations as f64));
    counters.push(("workers", ranges.len() as f64));
    counters.push(("generations", config.ga.generations as f64));
    counters.push(("fuzzer.panics", coordinator.panic_count() as f64));
    let mut ops = [0.0f64; 3];
    for tel in &tels {
        let o = &tel.metrics.operators;
        ops[0] += o.crossover.get() as f64;
        ops[1] += o.mutation.get() as f64;
        ops[2] += o.migrant.get() as f64;
    }
    counters.push(("ops.crossover", ops[0]));
    counters.push(("ops.mutation", ops[1]));
    counters.push(("ops.migrant", ops[2]));
    Ok(Output {
        counters,
        payload: Some(serde_json::to_string(&finding).map_err(err)?),
        wall_ns,
    })
}

/// The refresh `minimize_finding` applies after shrinking a genome.
fn refreshed(finding: &Finding, genome: GenomePayload, report: &MinimizeReport) -> Finding {
    let mut out = finding.clone();
    out.genome = genome;
    let (outcome, digest, fairness) = out.replay_full(None);
    out.outcome = outcome;
    out.behavior_digest = digest;
    out.fairness = fairness;
    out.signature = BehaviorSignature::from_outcome(&out.outcome, out.link_rate_bps as f64);
    out.id = finding_id(out.cca, out.mode, &out.signature);
    out.provenance.minimized = true;
    out.provenance.original_score = report.original_score;
    out.provenance.original_packets = report.original_packets;
    out
}

/// `ccfuzz minimize --all` then `ccfuzz replay --strict`, in process, on
/// the corpus already copied to `DIR/corpus`. Traffic and link findings
/// shrink through `minimize_traffic` / `minimize_link` over a timing
/// evaluator; the other modes go through `minimize_finding` as one span.
fn run_minimize(o: &Opts, tracer: &Tracer) -> Result<Output, String> {
    let root = tracer.open("minimize", 0);
    let corpus = tracer
        .span("store.open", root.id, |_| {
            Corpus::open_with(o.dir.join("corpus"), CorpusConfig::default())
        })
        .map_err(err)?;
    let lock = tracer
        .span("store.lock", root.id, |_| corpus.lock())
        .map_err(err)?;
    let mut findings = tracer
        .span("store.load_all", root.id, |_| corpus.load_all())
        .map_err(err)?;
    findings.sort_by(|a, b| a.id.cmp(&b.id));
    let cfg = MinimizeConfig::default();
    let mut traffic_samples = Vec::new();
    let mut link_samples = Vec::new();
    for finding in &findings {
        let span = tracer.open("minimize.finding", root.id);
        let (minimized, report, timed) = match &finding.genome {
            GenomePayload::Traffic(g) => {
                let ev = TimingEvaluator::new(finding.evaluator(), tracer, 16, 8);
                ev.set_parent(span.id);
                let (m, report) = minimize_traffic(&ev, g, &cfg);
                traffic_samples.push((finding.evaluator(), ev.take_samples()));
                (
                    refreshed(finding, GenomePayload::Traffic(m), &report),
                    report,
                    1.0,
                )
            }
            GenomePayload::Link(g) => {
                let ev = TimingEvaluator::new(finding.evaluator(), tracer, 16, 8);
                ev.set_parent(span.id);
                let (m, report) = minimize_link(&ev, g, &cfg);
                link_samples.push((finding.evaluator(), ev.take_samples()));
                (
                    refreshed(finding, GenomePayload::Link(m), &report),
                    report,
                    1.0,
                )
            }
            _ => {
                let (m, report) = tracer.span("minimize.untimed", span.id, |_| {
                    minimize_finding(finding, &cfg)
                });
                (m, report, 0.0)
            }
        };
        tracer
            .span("store.update", span.id, |_| {
                corpus.update(&finding.id, &minimized)
            })
            .map_err(err)?;
        tracer.close(
            span,
            vec![
                ("evals", report.evaluations as f64),
                ("threshold", report.threshold),
                ("original_score", report.original_score),
                ("minimized_score", report.minimized_score),
                ("original_packets", report.original_packets as f64),
                ("minimized_packets", report.minimized_packets as f64),
                ("timed", timed),
            ],
        );
    }
    let stored = tracer
        .span("store.load_all", root.id, |_| corpus.load_all())
        .map_err(err)?;
    let replay = tracer.open("replay", root.id);
    let report = replay_findings(&stored, None);
    tracer.close(replay, vec![("findings", stored.len() as f64)]);
    drop(lock);
    tracer.close(root, Vec::new());
    let wall_ns = tracer.now();
    if !report.is_clean() {
        return Err(format!("traced replay is not clean:\n{}", report.to_text()));
    }

    let mut cca = CcaTotals::default();
    for (ev, samples) in &traffic_samples {
        cca.measure(tracer, ev, samples);
    }
    for (ev, samples) in &link_samples {
        cca.measure(tracer, ev, samples);
    }
    let mut counters = cca.counters();
    counters.push(("findings", findings.len() as f64));
    Ok(Output {
        counters,
        payload: None,
        wall_ns,
    })
}

fn traffic_init(c: &Campaign, rng: &mut SimRng) -> TrafficGenome {
    TrafficGenome::generate(c.traffic_max_packets, c.duration, rng)
}

fn fairness_init(c: &Campaign, rng: &mut SimRng) -> ScenarioGenome {
    ScenarioGenome::generate(
        &c.flow_ccas,
        c.max_flows,
        c.duration,
        c.traffic_max_packets,
        rng,
    )
}

fn on_runner_thread(f: impl FnOnce() -> Result<Output, String> + Send) -> Result<Output, String> {
    std::thread::scope(|s| {
        s.spawn(f)
            .join()
            .map_err(|_| "daemon replica panicked".to_string())?
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let kind = args.first().map(String::as_str).unwrap_or("");
    let o = parse_opts(args)?;
    std::fs::create_dir_all(&o.dir).map_err(err)?;
    let tracer = if o.untraced {
        Tracer::off(o.seed)
    } else {
        Tracer::new(o.seed)
    };
    let out = match (kind, o.mode) {
        ("hunt", FuzzMode::Traffic) => run_hunt(
            &o,
            &tracer,
            &traffic_init,
            SnapshotPayload::Traffic,
            GenomePayload::Traffic,
        ),
        ("hunt", FuzzMode::Fairness) => run_hunt(
            &o,
            &tracer,
            &fairness_init,
            SnapshotPayload::Scenario,
            GenomePayload::Scenario,
        ),
        // `ccfuzzd` runs each hunt on its runner thread, not its main thread;
        // so does the replica, allocating from the same kind of malloc arena.
        ("daemon", FuzzMode::Traffic) => on_runner_thread(|| {
            run_daemon(
                &o,
                &tracer,
                &traffic_init,
                SnapshotPayload::Traffic,
                SnapshotPayload::into_traffic,
                GenomePayload::Traffic,
            )
        }),
        ("minimize", _) => run_minimize(&o, &tracer),
        _ => Err(format!(
            "unsupported replica `{kind}` in {} mode",
            o.mode.name()
        )),
    }?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(&o.spans).map_err(err)?);
    tracer.write_jsonl(&mut file).map_err(err)?;
    let counters: Vec<String> = out
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_number(*v)))
        .collect();
    let payload = match &out.payload {
        Some(p) => serde_json::to_string(p).map_err(err)?,
        None => "null".to_string(),
    };
    println!(
        "{{\"wall_ns\":{},\"spans\":{},\"counters\":{{{}}},\"payload\":{payload}}}",
        out.wall_ns,
        tracer.len(),
        counters.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
