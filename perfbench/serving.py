"""Serving workloads: ``repro serve --http`` in its own process.

``serve-paced``  open-loop arrivals at a fixed rate, two thirds new
                 n = 9 jobs and one third resubmissions of earlier
                 specs (the dedup read path); every finished job gets a
                 ``GET result``.
``serve-drain``  bursts of distinct new jobs submitted at once; each
                 burst's makespan runs from its first submit to its
                 last ``finished_at``.

The server runs with default flags (one worker) through
``serve_launcher.py``, which only adds span recording when asked to.
All latencies start from the time a request was *due*, and completion
comes from the server's own ``finished_at`` stamp on the same host
clock, never from when a poll noticed it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calibrate import busy_in, normalize, slice_over
from library import TABLE1_FUNCTIONS as FUNCTIONS
from stats import (
    balanced_percentile, geomean, lateness_ms, ok_frac, percentile,
)

HERE = Path(__file__).resolve().parent

#: open-loop arrival rate of serve-paced, requests per second, fixed
#: once: new jobs (two thirds) arrive at about 1.07/s, 30-40% of the
#: one-worker capacity serve-drain measured when the benchmark was
#: written (3-4 jobs/s), leaving room for slow spells of a shared host
PACED_RATE = 1.6
#: distinct jobs per serve-drain burst
DRAIN_BURST = 16
#: how often a sender checks its unfinished jobs, and readiness polling
POLL_SECONDS = 0.25
READY_POLL_SECONDS = 0.02
SENDERS = max(1, min(2, os.cpu_count() or 1))


def job_spec(function: str, seed: int):
    """One n = 9 Table-1 job: joint mode, P = R = 1, paper solver."""
    from repro.core.config import CoreSolverConfig, FrameworkConfig
    from repro.service.spec import JobSpec

    config = FrameworkConfig(
        mode="joint", free_size=4, n_partitions=1, n_rounds=1, seed=seed,
        solver=CoreSolverConfig.paper_small_scale(),
    )
    return JobSpec(workload=function, n_inputs=9, config=config)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve --http`` process over a fresh service dir."""

    def __init__(self, workdir: Path, name: str,
                 spans_out: Optional[Path] = None) -> None:
        self.root = workdir / name
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.spans_out = spans_out
        self.speed_out = self.root / "speed.txt"
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.process: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> Tuple[float, float, float]:
        """Launch and wait for readiness; returns the wall-clock
        ``(launched, ready)`` window of the set-up and the CPU seconds
        the server process used in it (hypervisor steal left out).
        """
        argv = [sys.executable, str(HERE / "serve_launcher.py"),
                str(self.speed_out)]
        if self.spans_out is not None:
            argv += ["--spans-out", str(self.spans_out)]
        argv += ["serve", "--service-dir", str(self.root / "svc"),
                 "--http", str(self.port)]
        self._log = open(self.root / "server.log", "wb")
        launched = time.time()
        start = time.perf_counter()
        self.process = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        deadline = start + 60.0
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}; "
                    f"see {self.root / 'server.log'}"
                )
            if self._healthy():
                return launched, time.time(), self.cpu_seconds()
            if time.perf_counter() > deadline:
                raise RuntimeError("server not ready within 60 s")
            time.sleep(READY_POLL_SECONDS)

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server process so far."""
        fields = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = fields.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _healthy(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2)
        try:
            conn.request("GET", "/v1/healthz")
            return conn.getresponse().status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def metrics_text(self) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/v1/metrics")
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain, span dump), then wait; kill if stuck.

        Not SIGINT: a process started from a non-interactive background
        shell inherits SIGINT as ignored.
        """
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


class Client:
    """``GatewayClient`` per thread, with the retry sleeps counted."""

    def __init__(self, url: str) -> None:
        self.url = url
        self.retries = 0
        self._lock = threading.Lock()

    def _sleep(self, seconds: float) -> None:
        with self._lock:
            self.retries += 1
        time.sleep(seconds)

    def make(self):
        from repro.gateway.client import GatewayClient

        return GatewayClient(self.url, sleep=self._sleep)


def counter_value(text: str, name: str) -> float:
    """Sum of a Prometheus counter's samples in exposition ``text``."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        if metric.split("{")[0] in (name, "repro_" + name):
            total += float(value)
    return total


def _status_of(exc) -> int:
    return int(getattr(exc, "status", 0) or 0)


class Ledger:
    """Shared, locked record of every request and job of one phase."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.arrivals: Dict[int, Dict] = {}
        self.records: Dict[str, object] = {}
        self.envelopes: Dict[str, Dict] = {}
        self.result_ms: List[float] = []
        self.rejected = 0

    def note_error(self, exc) -> None:
        if _status_of(exc) in (429, 503):
            with self.lock:
                self.rejected += 1

    def settle(self, client, job_id: str) -> bool:
        """Record a job once terminal (fetching its result); True then."""
        from repro.errors import GatewayError

        try:
            record = client.job(job_id)
        except GatewayError as exc:
            self.note_error(exc)
            return False
        if record.state not in ("done", "failed", "quarantined"):
            return False
        envelope = None
        if record.state == "done":
            t0 = time.perf_counter()
            try:
                envelope = client.result(job_id)
            except GatewayError as exc:
                self.note_error(exc)
            else:
                with self.lock:
                    self.result_ms.append((time.perf_counter() - t0) * 1e3)
        with self.lock:
            self.records[job_id] = record
            if envelope is not None:
                self.envelopes[job_id] = envelope
        return True


def warm_up(server: Server, seed: int) -> None:
    """One untimed job through submit, solve, status and result, plus a
    resubmission through the dedup path.
    """
    client = Client(server.url).make()
    spec = job_spec(FUNCTIONS[0], seed)
    record, _ = client.submit(spec)
    client.wait(record.id, poll_seconds=0.05, timeout_seconds=60)
    client.result(record.id)
    client.submit(spec)


# -- serve-paced --------------------------------------------------------


def paced_plan(seed: int, n_arrivals: int) -> List[Tuple[str, int]]:
    """``(kind, spec index)`` per arrival: "new" or "dedup".

    Every third arrival resubmits a spec first sent at least three
    arrivals earlier, so its original has normally been answered.
    """
    rng = random.Random(f"serve-paced:{seed}")
    plan, new_arrivals = [], []
    for index in range(n_arrivals):
        eligible = [j for j in new_arrivals if j <= index - 3]
        if index % 3 == 2 and eligible:
            plan.append(("dedup", plan[rng.choice(eligible)][1]))
        else:
            plan.append(("new", len(new_arrivals)))
            new_arrivals.append(index)
    return plan


def spec_stream(label: str, seed: int, count: int,
                guard: bool = False) -> List:
    """``count`` job specs cycling through the functions.

    With ``guard``, the first cycle is the quality guard: its seeds are
    fixed, so its MED is exactly comparable between runs and commits.
    """
    fixed = random.Random(f"{label}:guard")
    rng = random.Random(f"{label}:{seed}")
    specs = []
    for i in range(count):
        source = fixed if guard and i < len(FUNCTIONS) else rng
        specs.append(
            job_spec(FUNCTIONS[i % len(FUNCTIONS)], source.randrange(2 ** 31))
        )
    return specs


def run_paced(server: Server, seed: int, seconds: float) -> Dict:
    """Open-loop schedule for ``seconds``; then drain the stragglers."""
    from repro.errors import GatewayError

    n_arrivals = max(3, int(seconds * PACED_RATE))
    plan = paced_plan(seed, n_arrivals)
    specs = spec_stream("serve-paced", seed, n_arrivals, guard=True)
    ledger = Ledger()
    client_factory = Client(server.url)
    t0_perf = time.perf_counter() + 0.05
    t0_wall = time.time() + (t0_perf - time.perf_counter())
    due = [t0_perf + i / PACED_RATE for i in range(n_arrivals)]

    def sender(offset: int) -> None:
        client = client_factory.make()
        pending: List[str] = []
        next_poll = 0.0

        def poll() -> None:
            for job_id in list(pending):
                if ledger.settle(client, job_id):
                    pending.remove(job_id)

        for index in range(offset, n_arrivals, SENDERS):
            while True:
                now = time.perf_counter()
                if now >= due[index]:
                    break
                if pending and now >= next_poll:
                    poll()
                    next_poll = time.perf_counter() + POLL_SECONDS
                    continue
                wake = due[index]
                if pending:
                    wake = min(wake, next_poll)
                time.sleep(max(0.0, wake - now))
            kind, spec_index = plan[index]
            entry = {
                "kind": kind,
                "spec": spec_index,
                "due": due[index],
                "due_wall": t0_wall + index / PACED_RATE,
            }
            entry["sent"] = time.perf_counter()
            try:
                record, dedup = client.submit(specs[spec_index])
            except GatewayError as exc:
                ledger.note_error(exc)
                entry["error"] = _status_of(exc)
            else:
                entry["answered"] = time.time()
                entry["job"] = record.id
                entry["dedup"] = dedup
                if kind == "new" and not dedup:
                    pending.append(record.id)
            with ledger.lock:
                ledger.arrivals[index] = entry
        deadline = time.perf_counter() + 90.0
        while pending and time.perf_counter() < deadline:
            poll()
            if pending:
                time.sleep(POLL_SECONDS)

    threads = [
        threading.Thread(target=sender, args=(k,), daemon=True)
        for k in range(SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "ledger": ledger,
        "specs": specs,
        "t0_perf": t0_perf,
        "t0_wall": t0_wall,
        "retries": client_factory.retries,
        "n_arrivals": n_arrivals,
    }


# -- serve-drain --------------------------------------------------------


def run_drain(server: Server, seed: int, seconds: float) -> Dict:
    """Bursts of ``DRAIN_BURST`` distinct jobs until ``seconds`` pass.

    A burst starts only if the previous burst's length still fits, so
    the run ends close to ``seconds`` (the first burst always runs).
    """
    from repro.errors import GatewayError

    ledger = Ledger()
    client_factory = Client(server.url)
    rng = random.Random(f"serve-drain:{seed}")
    bursts: List[Dict] = []
    all_specs: List = []
    start = time.perf_counter()
    last = 0.0
    while not bursts or time.perf_counter() - start + last <= seconds:
        burst_start = time.perf_counter()
        specs = spec_stream("serve-drain", rng.randrange(2 ** 31),
                            DRAIN_BURST, guard=not bursts)
        base = len(all_specs)
        all_specs.extend(specs)
        jobs: Dict[int, str] = {}
        first_submit = time.time()

        def submitter(offset: int) -> None:
            client = client_factory.make()
            for index in range(offset, len(specs), SENDERS):
                # a burst's requests are due when sent; completion
                # counts from the burst's first submit
                entry = {
                    "kind": "new",
                    "spec": base + index,
                    "due_wall": time.time(),
                    "burst_start": first_submit,
                }
                try:
                    record, dedup = client.submit(specs[index])
                except GatewayError as exc:
                    ledger.note_error(exc)
                    entry["error"] = _status_of(exc)
                else:
                    entry["answered"] = time.time()
                    entry["job"] = record.id
                    entry["dedup"] = dedup
                    with ledger.lock:
                        jobs[index] = record.id
                with ledger.lock:
                    ledger.arrivals[base + index] = entry

        threads = [
            threading.Thread(target=submitter, args=(k,), daemon=True)
            for k in range(SENDERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        client = client_factory.make()
        deadline = time.perf_counter() + 120.0
        while time.perf_counter() < deadline:
            try:
                if client.healthz()["pending"] == 0:
                    break
            except GatewayError as exc:
                ledger.note_error(exc)
            time.sleep(0.1)
        for job_id in jobs.values():
            ledger.settle(client, job_id)
        finished = [
            ledger.records[j].finished_at for j in jobs.values()
            if j in ledger.records and ledger.records[j].finished_at
        ]
        bursts.append({
            "jobs": len(specs),
            "start": first_submit,
            "end": max(finished) if finished else None,
        })
        last = time.perf_counter() - burst_start
    return {
        "ledger": ledger,
        "specs": all_specs,
        "bursts": bursts,
        "retries": client_factory.retries,
        "n_arrivals": len(all_specs),
    }


# -- checks and metrics -------------------------------------------------


def check_phase(phase: Dict, sample: int = 2) -> Dict:
    """Correctness of one phase; returns per-arrival failure flags.

    * every submission answered 2xx;
    * every new job done (not failed or quarantined);
    * each fetched design's MED equals the job's recorded ``med``;
    * a resubmission returns the original job (dedup);
    * the first ``sample`` served designs equal a library solve of the
      same spec, compared as design dicts.
    """
    from repro.boolean.metrics import mean_error_distance
    from repro.core.framework import IsingDecomposer
    from repro.serialization import design_from_dict, result_to_dict

    ledger, specs = phase["ledger"], phase["specs"]
    tables: Dict[str, object] = {}
    new_job: Dict[int, str] = {}
    for entry in ledger.arrivals.values():
        if entry["kind"] == "new" and "job" in entry:
            new_job[entry["spec"]] = entry["job"]
    failed = {}
    sampled = 0
    for index in sorted(ledger.arrivals):
        entry = ledger.arrivals[index]
        ok = "job" in entry
        spec = specs[entry["spec"]]
        if ok and entry["kind"] == "dedup":
            ok = entry["dedup"] and entry["job"] == new_job.get(entry["spec"])
        elif ok:
            record = ledger.records.get(entry["job"])
            envelope = ledger.envelopes.get(entry["job"])
            ok = (
                not entry["dedup"]
                and record is not None
                and record.state == "done"
                and envelope is not None
            )
            if ok:
                exact = tables.get(spec.workload)
                if exact is None:
                    exact = tables[spec.workload] = spec.build_table()
                design = envelope["design"]
                served = design_from_dict(design).to_truth_table(
                    exact.probabilities
                )
                ok = mean_error_distance(exact, served) == record.med
            if ok and sampled < sample:
                sampled += 1
                result = IsingDecomposer(spec.config).decompose(
                    spec.build_table()
                )
                local = json.loads(json.dumps(result_to_dict(result)))
                ok = local == design
        failed[index] = not ok
    return failed


def _latencies(phase: Dict, samples) -> Dict[str, List]:
    """Normalized latencies (ms) and solve times (s) of one phase.

    ``submit``: due until the submit response, normalized by the
    sampler processes' samples.  ``complete``: due (serve-drain: burst
    start) until the job's ``finished_at``; ``decompose``: the job's
    server-side runtime.  Those two are normalized by the server's
    worker-thread samples, after taking out the time the samples
    themselves took.  ``classes`` holds each new job's function.
    """
    ledger, specs = phase["ledger"], phase["specs"]
    worker = phase["worker_samples"]
    out = {"submit": [], "complete": [], "decompose": [], "classes": []}
    for entry in ledger.arrivals.values():
        due = entry["due_wall"]
        if "answered" in entry:
            speed = slice_over(samples, due, entry["answered"])
            out["submit"].append(
                normalize(entry["answered"] - due, speed) * 1e3)
        if entry["kind"] != "new" or "job" not in entry:
            continue
        record = ledger.records.get(entry["job"])
        if (record is None or not record.finished_at
                or record.runtime_seconds is None):
            continue
        begin = entry.get("burst_start", due)
        out["complete"].append(
            worker_time(worker, begin, record.finished_at) * 1e3)
        out["decompose"].append(worker_time(
            worker, record.started_at, record.finished_at,
            record.runtime_seconds,
        ))
        out["classes"].append(specs[entry["spec"]].workload)
    return out


def worker_time(worker, start: float, end: float,
                seconds: Optional[float] = None) -> float:
    """``seconds`` (default ``end - start``) spent in ``[start, end]``,
    minus the worker probe's own slices there, normalized by them.
    """
    seconds = end - start if seconds is None else seconds
    return normalize(seconds - busy_in(worker, start, end),
                     slice_over(worker, start, end))


def e2e_metrics(phase: Dict, setup_s: float, samples,
                paced: bool) -> Tuple[Dict, int, int]:
    """Gated metrics plus ``(attempted, failed)`` of one phase.

    ``jobs_per_s`` is new jobs over the normalized burst makespans for
    serve-drain; for serve-paced the offered rate sets it, so it is new
    jobs finished over the wall time from the first due arrival to the
    last ``finished_at``, not normalized.  Solve times, and on
    serve-paced the completion latencies, weigh every function the
    same.  ``med_geomean`` covers the guard specs (fixed seeds).
    """
    ledger, specs = phase["ledger"], phase["specs"]
    failed = check_phase(phase)
    attempted = phase["n_arrivals"]
    n_failed = sum(failed.values()) + attempted - len(ledger.arrivals)
    done = [
        r for r in ledger.records.values()
        if r.state == "done" and r.med is not None
    ]
    guard = {
        e["job"] for e in ledger.arrivals.values()
        if e["kind"] == "new" and "job" in e
        and e["spec"] < len(FUNCTIONS)
    }
    if paced:
        first = min(e["due_wall"] for e in ledger.arrivals.values())
        last = max(r.finished_at for r in done)
        jobs_per_s = len(done) / (last - first)
    else:
        bursts = [b for b in phase["bursts"] if b["end"]]
        jobs_per_s = sum(b["jobs"] for b in bursts) / sum(
            worker_time(phase["worker_samples"], b["start"], b["end"])
            for b in bursts
        )
    lat = _latencies(phase, samples)
    classes = lat["classes"]

    def complete_pct(q):
        if paced:
            return balanced_percentile(lat["complete"], classes, q)
        return percentile(lat["complete"], q)

    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "decompose_s.p50": (
            balanced_percentile(lat["decompose"], classes, 50), "s"),
        "med_geomean": (
            geomean(r.med for r in done if r.id in guard), "MED"),
        "complete_ms.p50": (complete_pct(50), "ms"),
        "complete_ms.p90": (complete_pct(90), "ms"),
        "submit_ms.p50": (percentile(lat["submit"], 50), "ms"),
        "submit_ms.p90": (percentile(lat["submit"], 90), "ms"),
        "ok_frac": (ok_frac(attempted, n_failed), "ratio"),
    }
    return metrics, attempted, n_failed


def library_times(phase: Dict, sample: int = 12) -> Dict[str, float]:
    """Library decompose seconds of the phase's first ``sample`` new
    jobs, solved again in this process with the same layer wrappers the
    traced server ran under (the reference side of the per-job gap).
    """
    from repro.core.framework import IsingDecomposer
    from spans import SpanRecorder, install_library

    recorder = SpanRecorder()
    install_library(recorder)
    ledger, specs = phase["ledger"], phase["specs"]
    times: Dict[str, float] = {}
    for index in sorted(ledger.arrivals):
        entry = ledger.arrivals[index]
        if entry["kind"] != "new" or "job" not in entry:
            continue
        spec = specs[entry["spec"]]
        table = spec.build_table()
        start = time.perf_counter()
        IsingDecomposer(spec.config).decompose(table)
        times[entry["job"]] = time.perf_counter() - start
        if len(times) >= sample:
            break
    return times


def paced_lateness(phase: Dict) -> List[float]:
    entries = [e for e in phase["ledger"].arrivals.values()]
    return lateness_ms([e["due"] for e in entries],
                       [e["sent"] for e in entries])
