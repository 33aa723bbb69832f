"""Output checks. Each returns ``(ok, message)``; a job whose check fails
counts every evaluation it attempted as failed."""

import json
import os
import re
import subprocess

#: Minimum score share a minimized finding keeps (the `ccfuzz minimize`
#: default `--retain`).
RETAIN = 0.8

MINIMIZE_LINE = re.compile(
    r"^(?P<id>\S+): (?P<orig_pkts>\d+) -> (?P<min_pkts>\d+) packets, "
    r"score (?P<orig>[-\d.]+) -> (?P<min>[-\d.]+) \(threshold (?P<thr>[-\d.]+), (?P<evals>\d+) evals\)"
)


def parse_finding(payload):
    """Parses a hunt payload: one JSON finding with an id, a score and a
    behaviour digest."""
    try:
        finding = json.loads(payload)
        finding["id"], finding["behavior_digest"]
        float(finding["outcome"]["score"])
    except (ValueError, KeyError, TypeError) as e:
        return None, f"payload is not a finding: {e}"
    return finding, "payload parses"


def identical(a, b, what):
    """Byte-identical payloads (surrounding newlines ignored)."""
    if a.strip() == b.strip():
        return True, f"{what}: identical"
    return False, f"{what}: payloads differ"


def replay_clean(ccfuzz, payload, workdir):
    """The payload, alone in a fresh corpus, replays `--strict` CLEAN."""
    finding, msg = parse_finding(payload)
    if finding is None:
        return False, msg
    fid = str(finding["id"])
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", fid):
        return False, f"finding id {fid!r} is not a file name"
    findings = os.path.join(workdir, "findings")
    os.makedirs(findings, exist_ok=True)
    with open(os.path.join(findings, fid + ".json"), "w") as f:
        f.write(payload)
    r = subprocess.run(
        [ccfuzz, "replay", "--corpus", workdir, "--strict"],
        capture_output=True, text=True, timeout=120,
    )
    if r.returncode == 0 and "CLEAN" in r.stdout:
        return True, f"{fid} replays CLEAN"
    return False, f"{fid} replay --strict failed (exit {r.returncode}): {r.stdout.strip()[-300:]}"


def parse_minimize(stdout):
    """Per-finding rows of `ccfuzz minimize` output."""
    rows = []
    for line in stdout.splitlines():
        m = MINIMIZE_LINE.match(line)
        if m:
            rows.append({
                "id": m["id"],
                "original_packets": int(m["orig_pkts"]),
                "minimized_packets": int(m["min_pkts"]),
                "original_score": float(m["orig"]),
                "minimized_score": float(m["min"]),
                "evals": int(m["evals"]),
            })
    return rows


def minimize_retained(rows, expected):
    """Every one of ``expected`` findings was minimized and kept at least
    ``RETAIN`` of its score (scores are printed to 6 decimals)."""
    if len(rows) != expected:
        return False, f"minimize reported {len(rows)} findings, expected {expected}"
    for r in rows:
        if r["minimized_score"] < RETAIN * r["original_score"] - 1e-6:
            return False, (f"{r['id']} kept {r['minimized_score']:.6f} of "
                           f"{r['original_score']:.6f} (< {RETAIN})")
    return True, f"all {expected} findings keep >= {RETAIN} of their score"


def corpus_files(root):
    """Finding file name -> bytes under ``root/findings``."""
    d = os.path.join(root, "findings")
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


def same_corpus(a, b, what):
    """Two corpora hold the same findings, byte for byte."""
    fa, fb = corpus_files(a), corpus_files(b)
    if fa == fb:
        return True, f"{what}: {len(fa)} findings identical"
    return False, f"{what}: corpora differ ({sorted(set(fa) ^ set(fb)) or 'contents'})"


def tally(jobs):
    """``(attempted, failed)`` evaluations over jobs; a job whose checks
    failed counts all its evaluations as failed, and at least one."""
    attempted = failed = 0
    for job in jobs:
        evals = max(1, int(job["evals"]))
        attempted += evals
        if not job["ok"]:
            failed += evals
    return attempted, failed
