"""Per-layer metrics, derived from the traced runs' spans and counters.

``LAYER_METRICS`` is the benchmark's attribution table: for each metric, the
module it measures, the end-to-end metric and workload it should move, and
where it should barely move. ``BENCHMARK.json`` lists the same names, units
and directions (a test keeps the two in step).
"""

import stats

def _m(name, unit, better, layer, moves, flat):
    return {"name": name, "unit": unit, "better": better, "layer": layer,
            "moves": moves, "flat": flat}


_SIM = ("evals_per_s on hunt_fairness8, then hunt_traffic", "setup_s anywhere")
_CCA = ("evals_per_s on hunt_fairness8", "hunt_traffic (one Reno flow)")
_EVAL = ("evals_per_s on hunt_traffic; wall_s on corpus_minimize", "-")
_GA = ("wall_s on hunt_traffic (serial share); evals_per_s on hunt_fairness8 (barrier idle)",
       "corpus_minimize (no GA)")
_CKPT = ("wall_s, peak_rss_mb on hunt_traffic and daemon_traffic_w2",
         "hunt_fairness8 (no checkpoint)")
_STORE = ("setup_s everywhere; wall_s on corpus_minimize", "hunt evals_per_s")
_MIN = ("wall_s on corpus_minimize", "all hunts")
_FLEET = ("wall_s, evals_per_s on daemon_traffic_w2", "hunt_traffic")
_WALL = ("the wall_s share it names, on the workload traced", "-")
_TRACE = ("nothing end to end: the cost of tracing itself", "-")

LAYER_METRICS = [
    _m("netsim.events_per_eval", "count", "lower", "netsim", *_SIM),
    _m("netsim.ns_per_event", "ns", "lower", "netsim", *_SIM),
    _m("netsim.sim_ms_p50", "ms", "lower", "netsim", *_SIM),
    _m("netsim.sim_ms_p99", "ms", "lower", "netsim", *_SIM),
    _m("netsim.tx_per_eval", "count", "lower", "netsim", *_SIM),
    _m("netsim.drops_per_eval", "count", "lower", "netsim", *_SIM),
    _m("netsim.rto_per_eval", "count", "lower", "netsim", *_SIM),
    _m("cca.calls_per_eval", "count", "lower", "cca", *_CCA),
    _m("cca.ns_per_call", "ns", "lower", "cca", *_CCA),
    _m("cca.share", "share", "lower", "cca", *_CCA),
    _m("evaluate.calls", "count", "lower", "core.evaluate", *_EVAL),
    _m("evaluate.busy_s", "s", "lower", "core.evaluate", *_EVAL),
    _m("evaluate.ms_p50", "ms", "lower", "core.evaluate", *_EVAL),
    _m("evaluate.ms_p99", "ms", "lower", "core.evaluate", *_EVAL),
    _m("evaluate.samples", "count", "higher", "core.evaluate", *_EVAL),
    _m("evaluate.score_share", "share", "lower", "core.evaluate", *_EVAL),
    _m("fuzzer.generate_s", "s", "lower", "core.fuzzer", *_GA),
    _m("fuzzer.select_s", "s", "lower", "core.fuzzer", *_GA),
    _m("fuzzer.mutate_s", "s", "lower", "core.fuzzer", *_GA),
    _m("fuzzer.evaluate_s", "s", "lower", "core.fuzzer", *_GA),
    _m("fuzzer.serial_share", "share", "lower", "core.fuzzer", *_GA),
    _m("fuzzer.barrier_idle_share", "share", "lower", "core.fuzzer", *_GA),
    _m("fuzzer.ops.crossover", "count", "higher", "core.fuzzer", *_GA),
    _m("fuzzer.ops.mutation", "count", "higher", "core.fuzzer", *_GA),
    _m("fuzzer.ops.migrant", "count", "higher", "core.fuzzer", *_GA),
    _m("fuzzer.panics", "count", "lower", "core.fuzzer", *_GA),
    _m("checkpoint.count", "count", "lower", "corpus.checkpoint/obs.persist", *_CKPT),
    _m("checkpoint.bytes", "B", "lower", "corpus.checkpoint/obs.persist", *_CKPT),
    _m("checkpoint.encode_ms", "ms", "lower", "corpus.checkpoint/obs.persist", *_CKPT),
    _m("checkpoint.write_ms", "ms", "lower", "corpus.checkpoint/obs.persist", *_CKPT),
    _m("store.open_ms", "ms", "lower", "corpus.store", *_STORE),
    _m("store.load_all_ms", "ms", "lower", "corpus.store", *_STORE),
    _m("store.insert_ms", "ms", "lower", "corpus.store", *_STORE),
    _m("store.update_ms", "ms", "lower", "corpus.store", *_STORE),
    _m("minimize.evals", "count", "lower", "corpus.minimize", *_MIN),
    _m("minimize.accept_share", "share", "higher", "corpus.minimize", *_MIN),
    _m("replay.ms_per_finding", "ms", "lower", "corpus.replay", *_MIN),
    _m("proto.bytes_per_gen", "B", "lower", "corpus.proto", *_FLEET),
    _m("proto.encode_ms_per_gen", "ms", "lower", "corpus.proto", *_FLEET),
    _m("proto.decode_ms_per_gen", "ms", "lower", "corpus.proto", *_FLEET),
    _m("proto.final_bytes", "B", "lower", "corpus.proto", *_FLEET),
    _m("proto.final_encode_ms", "ms", "lower", "corpus.proto", *_FLEET),
    _m("proto.final_decode_ms", "ms", "lower", "corpus.proto", *_FLEET),
    _m("shard.absorb_ms_per_gen", "ms", "lower", "core.shard", *_FLEET),
    _m("shard.imbalance_share", "share", "lower", "core.shard", *_FLEET),
    _m("daemon.http_ms", "ms", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside_campaign_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.start_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.submit_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.queue_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.final_frames_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.checkpoint_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.persist_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.fetch_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.finish_window_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("daemon.outside.unattributed_s", "s", "lower", "corpus.daemon", *_FLEET),
    _m("wall.fuzzer_share", "share", "lower", "attribution", *_WALL),
    _m("wall.checkpoint_share", "share", "lower", "attribution", *_WALL),
    _m("wall.store_share", "share", "lower", "attribution", *_WALL),
    _m("wall.minimize_share", "share", "lower", "attribution", *_WALL),
    _m("wall.replay_share", "share", "lower", "attribution", *_WALL),
    _m("wall.unattributed_share", "share", "lower", "attribution", *_WALL),
    _m("trace.untraced_wall_s", "s", "lower", "tracing", *_TRACE),
    _m("trace.traced_wall_s", "s", "lower", "tracing", *_TRACE),
    _m("trace.overhead_share", "share", "lower", "tracing", *_TRACE),
    _m("trace.vs_job_share", "share", "lower", "tracing", *_TRACE),
]


def _dur(s):
    return (s["end_ns"] - s["start_ns"]) / 1e9


def _sum(spans, name):
    return sum(_dur(s) for s in spans if s["name"] == name)


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _per_parent(spans, name):
    """Durations of the spans called ``name``, grouped by parent span."""
    by_parent = {}
    for s in _named(spans, name):
        by_parent.setdefault(s["parent"], []).append(_dur(s))
    return by_parent


def _root(spans):
    roots = [s for s in spans if s["parent"] == 0 and not s["name"].startswith("cca.")]
    return roots[0]


def _descendants(spans, root_id):
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out, stack = [], [root_id]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c["id"])
    return out


def wall_shares(spans):
    """Shares of the traced job's wall covered by each layer's spans. The
    fuzzer's share excludes the checkpoints written from inside it."""
    root = _root(spans)
    wall = _dur(root)
    inner = _descendants(spans, root["id"])
    by_id = {s["id"]: s for s in spans}
    fuzz = sum(_dur(s) for s in inner if s["name"] in ("fuzzer.run", "fleet.run"))
    ckpt = fuzz_ckpt = 0.0
    for parent, durs in _per_parent(inner, "checkpoint.write").items():
        # Shard workers write their checkpoints in parallel: the longest blocks.
        t = max(durs) if by_id[parent]["name"] == "fleet.generation" else sum(durs)
        ckpt += t
        if by_id[parent]["name"] != root["name"]:
            fuzz_ckpt += t
    store = sum(_dur(s) for s in inner if s["name"].startswith("store."))
    store_in_minimize = sum(_dur(s) for s in inner if s["name"] == "store.update")
    minimize = _sum(inner, "minimize.finding") - store_in_minimize
    replay = _sum(inner, "replay")
    shares = {
        "wall.fuzzer_share": (fuzz - fuzz_ckpt) / wall,
        "wall.checkpoint_share": ckpt / wall,
        "wall.store_share": store / wall,
        "wall.minimize_share": minimize / wall,
        "wall.replay_share": replay / wall,
    }
    shares["wall.unattributed_share"] = 1.0 - sum(shares.values())
    return shares


def _fuzzer(wl, tr):
    """GA phase split of one traced job."""
    spans, c = tr["spans"], tr["counters"]
    out = {
        "fuzzer.ops.crossover": c.get("ops.crossover", 0.0),
        "fuzzer.ops.mutation": c.get("ops.mutation", 0.0),
        "fuzzer.ops.migrant": c.get("ops.migrant", 0.0),
        "fuzzer.panics": c.get("fuzzer.panics", 0.0),
    }
    busy = _sum(spans, "evaluate")
    if wl.kind == "hunt":
        gen, ev = c["phase.generate_ns"] / 1e9, c["phase.evaluate_ns"] / 1e9
        sel, mut = c["phase.select_ns"] / 1e9, c["phase.mutate_ns"] / 1e9
        run = _sum(spans, "fuzzer.run")
        idle = 1.0 - busy / (ev * c["threads"]) if ev else 0.0
    elif wl.kind == "daemon":
        gen = _sum(spans, "fleet.build")
        evals = _per_parent(spans, "shard.evaluate")
        ev = sum(max(v) for v in evals.values())
        sel = _sum(spans, "shard.absorb")
        mut = sum(max(v) for v in _per_parent(spans, "shard.evolve").values())
        run = _sum(spans, "fleet.run")
        workers = c["workers"]
        idle = 1.0 - sum(sum(v) for v in evals.values()) / (ev * workers) if ev else 0.0
    else:
        gen = ev = sel = mut = run = idle = 0.0
    out.update({
        "fuzzer.generate_s": gen,
        "fuzzer.evaluate_s": ev,
        "fuzzer.select_s": sel,
        "fuzzer.mutate_s": mut,
        "fuzzer.serial_share": (gen + sel + mut) / run if run else 0.0,
        "fuzzer.barrier_idle_share": idle,
    })
    return out


def _per_job(wl, tr):
    """Metrics read off one traced job."""
    spans, c = tr["spans"], tr["counters"]
    out = _fuzzer(wl, tr)
    evals = _named(spans, "evaluate")
    out["evaluate.calls"] = float(len(evals))
    out["evaluate.busy_s"] = sum(_dur(s) for s in evals)

    writes = _named(spans, "checkpoint.write")
    out["checkpoint.count"] = float(len(writes))
    out["checkpoint.bytes"] = sum(s["attrs"].get("bytes", 0) for s in writes)
    out["checkpoint.encode_ms"] = 1000 * _mean(_dur(s) for s in _named(spans, "checkpoint.encode"))
    out["checkpoint.write_ms"] = 1000 * _mean(_dur(s) for s in _named(spans, "checkpoint.io"))
    for name in ("open", "load_all", "insert", "update"):
        out[f"store.{name}_ms"] = 1000 * _mean(_dur(s) for s in _named(spans, f"store.{name}"))

    findings = _named(spans, "minimize.finding")
    out["minimize.evals"] = sum(s["attrs"]["evals"] for s in findings)
    accepted = tried = 0
    for f in findings:
        if not f["attrs"]["timed"]:
            continue
        candidates = sorted((s for s in evals if s["parent"] == f["id"]), key=lambda s: s["start_ns"])[1:]
        tried += len(candidates)
        accepted += sum(1 for s in candidates if s["attrs"]["score"] >= f["attrs"]["threshold"])
    out["minimize.accept_share"] = accepted / tried if tried else 0.0
    replays = _named(spans, "replay")
    out["replay.ms_per_finding"] = (
        1000 * _dur(replays[0]) / replays[0]["attrs"]["findings"] if replays else 0.0
    )

    gens = max(1.0, float(len(_named(spans, "fleet.generation"))))
    is_final = lambda s: s["attrs"].get("final", 0) == 1
    enc = [s for s in _named(spans, "proto.encode") if not is_final(s)]
    dec = [s for s in _named(spans, "proto.decode") if not is_final(s)]
    final_enc = [s for s in _named(spans, "proto.encode") if is_final(s)]
    final_dec = [s for s in _named(spans, "proto.decode") if is_final(s)]
    out["proto.bytes_per_gen"] = sum(s["attrs"]["bytes"] for s in enc) / gens
    out["proto.encode_ms_per_gen"] = 1000 * sum(_dur(s) for s in enc) / gens
    out["proto.decode_ms_per_gen"] = 1000 * sum(_dur(s) for s in dec) / gens
    out["proto.final_bytes"] = sum(s["attrs"]["bytes"] for s in final_enc)
    out["proto.final_encode_ms"] = 1000 * sum(_dur(s) for s in final_enc)
    out["proto.final_decode_ms"] = 1000 * sum(_dur(s) for s in final_dec)
    out["shard.absorb_ms_per_gen"] = 1000 * _sum(spans, "shard.absorb") / gens
    per_gen = _per_parent(spans, "shard.evaluate").values()
    out["shard.imbalance_share"] = _mean((max(v) - min(v)) / max(v) for v in per_gen if max(v) > 0)
    out.update(wall_shares(spans))
    return out


def _finish_parts(traced):
    """Per traced job, what follows the last generation: the FINAL frames
    (workers encode in parallel, the coordinator decodes one after the
    other, then assembles), the final campaign checkpoint, and building and
    storing the finding."""
    parts = {"final_frames_s": [], "checkpoint_s": [], "persist_s": []}
    for tr in traced:
        spans = tr["spans"]
        root = _root(spans)
        enc = [_dur(s) for s in _named(spans, "proto.encode") if s["attrs"].get("final")]
        dec = [_dur(s) for s in _named(spans, "proto.decode") if s["attrs"].get("final")]
        parts["final_frames_s"].append(max(enc, default=0.0) + sum(dec) + _sum(spans, "shard.assemble"))
        parts["checkpoint_s"].append(
            sum(_dur(s) for s in _named(spans, "checkpoint.write") if s["parent"] == root["id"])
        )
        parts["persist_s"].append(_sum(spans, "finding.build") + _sum(spans, "store.insert"))
    return parts


def derive(wl, jobs, traced):
    """Every per-layer metric for one workload from its untraced jobs and
    their traced twins. Timing distributions pool every traced job;
    per-job figures report their median."""
    metrics = {}
    per_job = [_per_job(wl, tr) for tr in traced]
    for key in per_job[0]:
        metrics[key] = stats.median([p[key] for p in per_job])

    sims = [s for tr in traced for s in _named(tr["spans"], "netsim.simulate")]
    evals = [s for tr in traced for s in _named(tr["spans"], "evaluate")]
    sim_ms = [1000 * _dur(s) for s in sims]
    eval_ms = [1000 * _dur(s) for s in evals]
    events = sum(s["attrs"]["events"] for s in sims)
    n = len(sims)
    metrics["netsim.events_per_eval"] = events / n
    metrics["netsim.ns_per_event"] = 1e9 * sum(_dur(s) for s in sims) / events
    metrics["netsim.sim_ms_p50"] = stats.median(sim_ms)
    tail_pct, metrics["netsim.sim_ms_p99"], _ = stats.tail_percentile(sim_ms)
    for key in ("tx", "drops", "rto"):
        metrics[f"netsim.{key}_per_eval"] = sum(s["attrs"][key] for s in sims) / n
    metrics["evaluate.ms_p50"] = stats.median(eval_ms)
    _, metrics["evaluate.ms_p99"], metrics["evaluate.samples"] = stats.tail_percentile(eval_ms)
    metrics["evaluate.samples"] = float(metrics["evaluate.samples"])
    metrics["evaluate.score_share"] = (
        sum(_sum(tr["spans"], "evaluate.score") for tr in traced)
        / sum(_sum(tr["spans"], "evaluate") for tr in traced)
    )

    c = {k: sum(tr["counters"].get(k, 0.0) for tr in traced)
         for k in ("cca.genomes", "cca.calls", "cca.timed_calls", "cca.timed_ns", "cca.plain_sim_ns")}
    overhead = max(tr["counters"].get("cca.timer_overhead_ns", 0.0) for tr in traced)
    ns_per_call = (
        max(0.0, c["cca.timed_ns"] - overhead * c["cca.timed_calls"]) / c["cca.timed_calls"]
        if c["cca.timed_calls"] else 0.0
    )
    metrics["cca.calls_per_eval"] = c["cca.calls"] / c["cca.genomes"] if c["cca.genomes"] else 0.0
    metrics["cca.ns_per_call"] = ns_per_call
    metrics["cca.share"] = c["cca.calls"] * ns_per_call / c["cca.plain_sim_ns"] if c["cca.plain_sim_ns"] else 0.0

    daemon = [j for j in jobs if "outside" in j]
    http_ms = [ms for j in daemon for ms in j["http_ms"]]
    metrics["daemon.http_ms"] = stats.median(http_ms) if http_ms else 0.0
    outside = [j["wall_s"] - j["campaign_s"] for j in daemon]
    metrics["daemon.outside_campaign_s"] = stats.median(outside) if outside else 0.0
    for key in ("start_s", "submit_s", "queue_s", "fetch_s", "finish_window_s"):
        metrics[f"daemon.outside.{key}"] = (
            stats.median([j["outside"][key] for j in daemon]) if daemon else 0.0
        )
    # The finish window's parts, as the traced twin timed them.
    for key, parts in _finish_parts(traced).items():
        metrics[f"daemon.outside.{key}"] = stats.median(parts) if daemon else 0.0
    metrics["daemon.outside.unattributed_s"] = metrics["daemon.outside_campaign_s"] - sum(
        metrics[f"daemon.outside.{key}"]
        for key in ("start_s", "submit_s", "queue_s", "final_frames_s", "checkpoint_s",
                    "persist_s", "fetch_s")
    )

    # Tracing cost: the traced replica against the same replica with span
    # recording off, pair by pair. The comparison with the job itself also
    # carries what the replica leaves out (process start and exit; for the
    # daemon, sockets, HTTP and the worker processes).
    metrics["trace.untraced_wall_s"] = stats.median([tr["plain_wall_s"] for tr in traced])
    metrics["trace.traced_wall_s"] = stats.median([tr["wall_s"] for tr in traced])
    metrics["trace.overhead_share"] = stats.median([tr["wall_s"] / tr["plain_wall_s"] - 1.0 for tr in traced])
    metrics["trace.vs_job_share"] = stats.median(
        [tr["wall_s"] / j["wall_s"] - 1.0 for j, tr in zip(jobs, traced)]
    )
    return metrics, tail_pct
