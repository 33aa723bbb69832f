"""The four workloads, each driven through the release `ccfuzz` / `ccfuzzd`
binaries exactly as a user runs them. Every workload is a closed loop: one
job at a time from this process, no more than two busy threads, one HTTP
connection at a time. A job returns its end-to-end figures, its check
results and whatever its traced twin needs to compare against."""

import json
import os
import re
import shutil
import subprocess
import time

import checks
import procs
import stats

now = procs.now

PAPER_GA = ["--islands", "20", "--population", "25"]
TRAFFIC_SPEC = ["--cca", "reno", "--mode", "traffic", "--seconds", "1", *PAPER_GA, "--generations", "3"]
FAIRNESS8_SPEC = [
    "--cca", "bbr", "--mode", "fairness",
    "--flows", "bbr,reno,cubic,vegas,bbr,reno,cubic,vegas",
    *PAPER_GA, "--generations", "2",
]

GEN_LINE = re.compile(r"^\[gen\s+\d+\].*\|\s*(\d+) evals")

#: Status poll period while a daemon hunt runs.
POLL_S = 0.02


class Workload:
    """One workload: its kind of job, the hunt flags it passes, and why it
    is in the benchmark (the line `BENCHMARK.json` records)."""

    def __init__(self, name, kind, why, spec=(), checkpoint=False, workers=0):
        self.name = name
        self.kind = kind
        self.why = why
        self.spec = list(spec)
        self.checkpoint = checkpoint
        self.workers = workers

    def tracer_args(self, seed):
        """Flags for the traced in-process twin of one job."""
        if self.kind == "minimize":
            return ["minimize"]
        args = [self.kind, *self.spec, "--seed", str(seed)]
        if self.checkpoint:
            args.append("--checkpoint")
        if self.workers:
            args += ["--workers", str(self.workers)]
        return args


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "hunt_traffic", "hunt",
            "Paper headline search (Reno low-rate attack, 20x25, 3 gens, 1 s traces): GA serial work "
            "and checkpoints show. Closed loop, 1 hunt at a time, 2 threads, checkpoint+telemetry; seed 1",
            TRAFFIC_SPEC + ["--threads", "2"], checkpoint=True,
        ),
        Workload(
            "hunt_fairness8", "hunt",
            "8 mixed-CCA flows, 20x25, 2 gens: evaluation is ~99% of wall, so the multi-flow sim, "
            "CCA calls and gen barrier load. Closed loop, 1 hunt at a time, 2 threads; seed 1",
            FAIRNESS8_SPEC + ["--threads", "2"],
        ),
        Workload(
            "corpus_minimize", "minimize",
            "minimize --all + replay --strict on the 7 fixtures: serial, latency-bound evals and "
            "corpus I/O, no GA or pool. Closed loop, 1 at a time, 1 thread; fixed inputs, seed 1",
        ),
        Workload(
            "daemon_traffic_w2", "daemon",
            "hunt_traffic's spec via ccfuzzd, 2 workers x 1 thread: prices frames, sharding, "
            "daemon I/O. Closed loop, 1 daemon+hunt at a time, 1 HTTP connection; seed 1",
            TRAFFIC_SPEC + ["--threads", "1"], workers=2,
        ),
    ]
}


class Context:
    """Binaries plus a scratch directory inside the checkout."""

    def __init__(self, ccfuzz, ccfuzzd, tracer, fixtures, work):
        self.ccfuzz = ccfuzz
        self.ccfuzzd = ccfuzzd
        self.tracer = tracer
        self.fixtures = fixtures
        self.work = work

    def jobdir(self, tag):
        d = os.path.join(self.work, tag)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return d


def _result(ok, msgs, **figures):
    figures.update(ok=ok, checks=msgs)
    return figures


def _verify(msgs, *results):
    ok = True
    for good, msg in results:
        msgs.append(("ok   " if good else "FAIL ") + msg)
        ok &= good
    return ok


#: Set-up probes per job; a job reports their median.
SETUP_PROBES = 5


def _hunt_argv(ctx, wl, seed, d):
    argv = [ctx.ccfuzz, "hunt", "--corpus", os.path.join(d, "corpus"), *wl.spec, "--seed", seed]
    if wl.checkpoint:
        argv += ["--checkpoint", os.path.join(d, "checkpoint.json"),
                 "--telemetry", os.path.join(d, "telemetry.jsonl")]
    return argv


def hunt_job(ctx, wl, seed, tag):
    """`ccfuzz hunt` in a fresh corpus. Set-up is timed on separate launches
    of the same hunt, each in its own fresh corpus and stopped at its first
    line, which it prints once the corpus is open and locked and the
    campaign is built; what follows before evaluation starts is printing."""
    d = ctx.jobdir(tag)
    probes = [procs.first_line(_hunt_argv(ctx, wl, seed, os.path.join(d, f"probe{k}")))
              for k in range(SETUP_PROBES)]
    p = procs.run(_hunt_argv(ctx, wl, seed, d))
    msgs = []
    gens = [GEN_LINE.match(line) for _, line in p.stderr if GEN_LINE.match(line)]
    unstarted = [line for _, line in probes if not line.startswith("hunting:")]
    if unstarted:
        _verify(msgs, (False, f"set-up probe printed {unstarted[0]!r}, not a hunting: line"))
        return _result(False, msgs, wall_s=p.wall, evals=1, payload="")
    if p.rc != 0 or not gens or not p.stderr[0][1].startswith("hunting:"):
        _verify(msgs, (False, f"hunt exited {p.rc}: {p.stderr[-1][1] if p.stderr else ''}"))
        return _result(False, msgs, wall_s=p.wall, evals=1, payload="")
    evals = int(gens[-1].group(1))
    finding, msg = checks.parse_finding(p.stdout)
    ok = _verify(msgs, (finding is not None, msg),
                 checks.replay_clean(ctx.ccfuzz, p.stdout, os.path.join(d, "replay")))
    return _result(
        ok, msgs, wall_s=p.wall, setup_s=stats.median([t for t, _ in probes]), evals=evals,
        peak_rss_mb=p.maxrss_kb / 1024,
        best_score=float(finding["outcome"]["score"]) if finding else 0.0,
        payload=p.stdout,
    )


def minimize_job(ctx, wl, seed, tag):
    """A fresh copy of the fixture corpus, then `ccfuzz minimize --all`, then
    `ccfuzz replay --strict`. Set-up is the median of a few `ccfuzz report`
    runs on the fresh copy: process start, corpus open with its recovery
    sweep, and load."""
    d = ctx.jobdir(tag)
    corpus = os.path.join(d, "corpus")
    shutil.copytree(ctx.fixtures, corpus)
    expected = len(os.listdir(os.path.join(corpus, "findings")))
    probes = [procs.run([ctx.ccfuzz, "report", "--corpus", corpus]) for _ in range(SETUP_PROBES)]
    mini = procs.run([ctx.ccfuzz, "minimize", "--corpus", corpus, "--all"])
    replay = procs.run([ctx.ccfuzz, "replay", "--corpus", corpus, "--strict"])
    rows = checks.parse_minimize(mini.stdout)
    replayed = sum(1 for line in replay.stdout.splitlines() if line.endswith(" ok"))
    msgs = []
    ok = _verify(
        msgs,
        (all(p.rc == 0 for p in probes), f"report exited {[p.rc for p in probes]}"),
        (mini.rc == 0, f"minimize exited {mini.rc}"),
        checks.minimize_retained(rows, expected),
        (replay.rc == 0 and "CLEAN" in replay.stdout and replayed == expected,
         f"replay --strict exited {replay.rc}, {replayed}/{expected} findings ok"),
    )
    orig = sum(r["original_packets"] for r in rows)
    shrunk = sum(r["minimized_packets"] for r in rows)
    return _result(
        ok, msgs, wall_s=replay.end - mini.start, setup_s=stats.median([p.wall for p in probes]),
        evals=sum(r["evals"] for r in rows) + replayed,
        peak_rss_mb=(mini.maxrss_kb + replay.maxrss_kb) / 1024,
        best_score=max((r["minimized_score"] for r in rows), default=0.0),
        shrink_ratio=(orig - shrunk) / orig if orig else 0.0,
        corpus=corpus,
    )


def _start_daemon(ctx, root, log):
    """Starts `ccfuzzd` and waits for its published address."""
    p = subprocess.Popen([ctx.ccfuzzd, "--root", root], stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=log)
    addr_file = os.path.join(root, "daemon.addr")
    deadline = now() + 30
    while not os.path.exists(addr_file):
        if p.poll() is not None or now() > deadline:
            return p, None
        time.sleep(0.001)
    with open(addr_file) as f:
        return p, f.read().strip()


def _submit(ctx, root, spec, seed, workers):
    sub = procs.run([ctx.ccfuzz, "submit", "--daemon", root, *spec, "--seed", seed,
                     "--workers", str(workers)])
    try:
        return sub, json.loads(sub.stdout)["id"]
    except (ValueError, KeyError):
        return sub, None


def daemon_job(ctx, wl, seed, tag):
    """Start `ccfuzzd`, `ccfuzz submit` the hunt, poll its status to
    completion, fetch the finding; wall runs from daemon launch to the
    fetched finding. Set-up runs to the first status listing connected
    workers. Also times where the wall outside the campaign's own telemetry
    went, as seen from outside: the windows before the campaign's telemetry
    clock starts, and the finish window from the last generation's status to
    the completed one (its parts come from the traced twin)."""
    d = ctx.jobdir(tag)
    root = os.path.join(d, "daemon")
    msgs = []
    log = open(os.path.join(d, "daemon.log"), "w")
    t0 = now()
    dp, addr = _start_daemon(ctx, root, log)
    http_s = []
    hwm = {}
    t_pids = t_last_gen = t_done = None
    sub = payload = None
    campaign_s = 0.0
    expected = _expected_evals(wl.spec)
    try:
        if not addr:
            raise RuntimeError("daemon did not publish its address")
        t_addr = now()
        sub, hid = _submit(ctx, root, wl.spec, seed, wl.workers)
        if not hid:
            raise RuntimeError(f"submit failed (exit {sub.rc})")
        state = None
        while True:
            t = now()
            code, body = procs.http(addr, "GET", f"/hunts/{hid}")
            http_s.append(now() - t)
            st = json.loads(body)
            state = st["state"]
            pids = st["worker_pids"]
            if pids and t_pids is None:
                t_pids = now()
            if t_last_gen is None and st["evaluations"] >= expected:
                t_last_gen = now()
            if state not in ("Queued", "Running"):
                t_done = now()
                t_last_gen = t_last_gen or t_done
                break
            if now() - t0 > 170:
                raise RuntimeError("daemon hunt did not finish in time")
            if t_pids is None:
                time.sleep(0.005)
            else:
                _watch_peaks(pids, hwm, POLL_S)
        if state != "Completed":
            raise RuntimeError(f"daemon hunt ended {state}: {st.get('error')}")
        t = now()
        code, payload = procs.http(addr, "GET", f"/hunts/{hid}/findings")
        t_end = now()
        fetch_s = t_end - t
        http_s.append(fetch_s)
        if code != 200:
            raise RuntimeError(f"fetch returned {code}")
        daemon_kb = procs.vm_hwm_kb(dp.pid)
        _, stream = procs.http(addr, "GET", f"/hunts/{hid}/stream")
        snaps = [json.loads(line) for line in stream.splitlines() if line.strip()]
        campaign_s = snaps[-1]["elapsed_secs"]
        evaluations = snaps[-1]["evaluations"]
    except (RuntimeError, OSError, ValueError, KeyError, IndexError, TypeError) as e:
        procs.stop(dp)
        log.close()
        _verify(msgs, (False, f"daemon job: {e}"))
        return _result(False, msgs, wall_s=now() - t0, evals=expected, payload="")
    procs.stop(dp)
    log.close()

    control = procs.run([ctx.ccfuzz, "hunt", "--corpus", os.path.join(d, "control"),
                         *wl.spec, "--seed", seed])
    ok = _verify(
        msgs,
        checks.identical(payload, control.stdout, "daemon payload vs single-process ccfuzz hunt"),
        checks.replay_clean(ctx.ccfuzz, payload, os.path.join(d, "replay")),
    )
    finding, _ = checks.parse_finding(payload)
    hunt_start = t_last_gen - campaign_s
    outside = {
        "start_s": t_addr - t0,
        "submit_s": sub.wall,
        "queue_s": max(0.0, hunt_start - sub.end),
        "finish_window_s": t_done - t_last_gen,
        "fetch_s": fetch_s,
    }
    return _result(
        ok, msgs, wall_s=t_end - t0, setup_s=t_pids - t0,
        evals=evaluations,
        peak_rss_mb=(daemon_kb + sum(hwm.values()) + sub.maxrss_kb) / 1024,
        best_score=float(finding["outcome"]["score"]) if finding else 0.0,
        payload=payload, campaign_s=campaign_s, outside=outside,
        http_ms=[1000 * s for s in http_s],
    )


def _watch_peaks(pids, hwm, seconds):
    """Reads the workers' peak RSS (VmHWM) every millisecond for
    ``seconds``. A worker reaches its peak encoding its FINAL snapshot, a
    few milliseconds before it exits, so a coarser poll would miss it."""
    until = now() + seconds
    while True:
        alive = False
        for pid in pids:
            kb = procs.vm_hwm_kb(pid)
            alive |= kb > 0
            hwm[pid] = max(hwm.get(pid, 0), kb)
        left = until - now()
        if left <= 0:
            return
        time.sleep(0.001 if alive else left)


def _expected_evals(spec):
    """Evaluations a hunt of ``spec`` performs: the first generation scores
    everyone, later ones everyone but the one elite per island."""
    flag = lambda f: int(spec[spec.index(f) + 1])
    islands, pop, gens = flag("--islands"), flag("--population"), flag("--generations")
    return islands * pop + (gens - 1) * islands * (pop - 1)


JOBS = {"hunt": hunt_job, "minimize": minimize_job, "daemon": daemon_job}


def run_job(ctx, wl, seed, tag):
    return JOBS[wl.kind](ctx, wl, str(seed), tag)


def _replica(ctx, wl, seed, d, traced, untraced, msgs):
    """One in-process replica of a job, with span recording on or off; it
    must reach the same result as the untraced job. Returns its output
    line, or None when it printed none."""
    if wl.kind == "minimize":
        shutil.copytree(ctx.fixtures, os.path.join(d, "corpus"))
    argv = [ctx.tracer, *wl.tracer_args(seed), "--dir", d, "--spans", os.path.join(d, "spans.jsonl")]
    what = "traced" if traced else "untraced"
    p = procs.run(argv if traced else argv + ["--untraced"])
    try:
        out = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        _verify(msgs, (False, f"{what} replica exited {p.rc}: {p.stderr[-1][1] if p.stderr else ''}"))
        return None
    if wl.kind == "minimize":
        same = checks.same_corpus(os.path.join(d, "corpus"), untraced["corpus"],
                                  f"{what} replica vs job: minimized corpus")
    else:
        same = checks.identical(out["payload"], untraced["payload"],
                                f"{what} replica vs job: finding (score and digest)")
    _verify(msgs, (p.rc == 0, f"{what} replica exited {p.rc}"), same)
    return out


def traced_job(ctx, wl, seed, tag, untraced, plain_first):
    """The traced in-process twin of one job, and the same replica with span
    recording off, which prices the tracing; ``plain_first`` picks their
    order."""
    d = ctx.jobdir(tag)
    msgs = []
    outs = {}
    for traced in ((False, True) if plain_first else (True, False)):
        rd = os.path.join(d, "traced" if traced else "plain")
        outs[traced] = _replica(ctx, wl, seed, rd, traced, untraced, msgs)
    tr, plain = outs[True], outs[False]
    if tr is None or plain is None:
        return {"ok": False, "checks": msgs, "evals": untraced.get("evals", 1)}
    _verify(msgs, (tr["counters"].get("cca.digest_mismatches", 0) == 0,
                   "CCA-wrapped re-simulations reproduce the plain digests"))
    ok = all(m.startswith("ok") for m in msgs)
    with open(os.path.join(d, "traced", "spans.jsonl")) as f:
        spans = [json.loads(line) for line in f]
    return {"ok": ok, "checks": msgs, "evals": untraced.get("evals", 1),
            "wall_s": tr["wall_ns"] / 1e9, "plain_wall_s": plain["wall_ns"] / 1e9,
            "counters": tr["counters"], "spans": spans}
