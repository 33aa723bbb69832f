"""Process and HTTP plumbing: every program the benchmark starts is reaped
with ``wait4`` so its peak RSS is read from the kernel's rusage."""

import os
import socket
import subprocess
import threading
import time

now = time.perf_counter


class Proc:
    """A finished process: exit code, wall interval, output and peak RSS.
    ``stderr`` holds ``(arrival_time, line)`` pairs, so the benchmark can
    time what a program reports on the way."""

    def __init__(self, rc, start, end, stdout, stderr, maxrss_kb):
        self.rc = rc
        self.start = start
        self.end = end
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb

    @property
    def wall(self):
        return self.end - self.start


def run(argv, timeout=170):
    """Runs ``argv`` to completion; kills it after ``timeout`` seconds."""
    start = now()
    p = subprocess.Popen(
        [str(a) for a in argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = [], []

    def read_out():
        out.append(p.stdout.read())

    def read_err():
        for line in p.stderr:
            err.append((now(), line.decode(errors="replace").rstrip("\n")))

    readers = [threading.Thread(target=read_out), threading.Thread(target=read_err)]
    for t in readers:
        t.start()
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    _, status, usage = os.wait4(p.pid, 0)
    end = now()
    p.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    for t in readers:
        t.join()
    p.stdout.close()
    p.stderr.close()
    return Proc(p.returncode, start, end, out[0].decode(errors="replace"), err, usage.ru_maxrss)


def first_line(argv, timeout=30):
    """Launches ``argv`` and returns the seconds until its first stderr line,
    and that line; then kills it. With two or more CPUs the program runs on
    one of them and this process waits on another, so threads the program
    starts right after that line cannot delay reading it."""
    cpus = sorted(os.sched_getaffinity(0))
    pin = len(cpus) >= 2
    try:
        if pin:
            os.sched_setaffinity(0, {cpus[-1]})  # the child inherits this
        start = now()
        p = subprocess.Popen(
            [str(a) for a in argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if pin:
            os.sched_setaffinity(0, set(cpus[:-1]))
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        line = p.stderr.readline()
        end = now()
    finally:
        if pin:
            os.sched_setaffinity(0, set(cpus))
    p.kill()
    p.wait()
    killer.cancel()
    p.stderr.close()
    return end - start, line.decode(errors="replace").rstrip("\n")


def stop(p, timeout=60):
    """SIGTERMs a ``Popen`` (SIGKILL after ``timeout`` s); returns its rusage."""
    p.terminate()
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    killer.cancel()
    return usage


def vm_hwm_kb(pid):
    """Peak RSS so far of a live process we did not start (0 once gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def http(addr, method, path, body=""):
    """One HTTP/1.1 request on its own connection; returns (code, body)."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as s:
        s.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n{body}".encode()
        )
        chunks = []
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), payload.decode(errors="replace")
