"""Benchmark entry point; see README.md in this directory.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-n9 --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` prints the gated end-to-end metrics; ``--trace 1`` runs
the same work untraced and then traced, and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is the result
JSON (``correct``, ``attempted``, ``failed``, ``metrics``); the line
before it is the environment fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("table1-n9", "fig4-n16", "serve-paced", "serve-drain")
SETUP_REPEATS = 3
#: latency tails and submit latencies spread too much between runs on
#: the serving workloads to gate (see README); the traced run reports
#: them, from its untraced half
TAILS = ("complete_ms.p90", "submit_ms.p50", "submit_ms.p90")


def fingerprint() -> dict:
    """nproc, BLAS, numpy, Python and the source revision."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 — older numpy has no dict mode
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# -- library workloads --------------------------------------------------


def library(workload: str, seed: int, seconds: float, trace: bool):
    import library as lib
    from calibrate import normalize

    suite = lib.SUITES[workload]
    setup_s = None
    if not trace:
        # what a fresh process pays: import, then building the inputs;
        # the probe reports its CPU time and the speed it saw
        probes = []
        for _ in range(SETUP_REPEATS):
            probe = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload],
                check=True, timeout=120, capture_output=True, text=True,
            )
            used, unit = map(float, probe.stdout.split()[-2:])
            probes.append(normalize(used, unit))
        setup_s = statistics.median(probes)
    lib.warm_up(suite)
    if not trace:
        run = lib.decompose_all(suite, suite.items(seed), seconds)
        return lib.e2e_metrics(run, setup_s)

    import layers
    from spans import SpanRecorder, install_library

    plain = lib.decompose_all(suite, suite.items(seed), seconds / 2)
    recorder = SpanRecorder()
    install_library(recorder)
    traced = lib.decompose_all(
        suite, iter(plain["items"]),
        on_slice=lambda seconds: recorder.leaf("calibration", seconds),
    )
    metrics = layers.library_layers(recorder.export())
    metrics["trace.overhead_frac"] = (
        sum(traced["decompose"]) / sum(plain["decompose"]) - 1.0
    )
    tails = lib.e2e_metrics(plain, 0.0)[0]
    metrics.update({name: tails[name][0] for name in TAILS})
    results = plain["results"] + traced["results"]
    failed = sum(1 for r in results if not lib.check_result(r))
    return layers.complete(metrics), len(results), failed


# -- serving workloads --------------------------------------------------


def serving(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, sampler):
    import serving as srv
    from calibrate import normalize, read_samples, slice_over

    paced = workload == "serve-paced"
    run = srv.run_paced if paced else srv.run_drain

    def setup_seconds(window) -> float:
        launched, ready, cpu = window
        return normalize(cpu, slice_over(sampler.samples(), launched, ready))

    def phase(name: str, length: float, spans_out=None):
        server = srv.Server(workdir, name, spans_out)
        try:
            window = server.start()
            srv.warm_up(server, seed)
            result = run(server, seed, length)
            result["metrics_text"] = server.metrics_text()
        finally:
            server.stop()
        result["setup_window"] = window
        result["worker_samples"] = read_samples(server.speed_out)
        return result

    def e2e(result, setup_s=0.0):
        return srv.e2e_metrics(result, setup_s, sampler.samples(), paced)

    if not trace:
        windows = []
        for index in range(SETUP_REPEATS - 1):
            server = srv.Server(workdir, f"setup{index}")
            try:
                windows.append(server.start())
            finally:
                server.stop()
        result = phase("measured", seconds)
        windows.append(result["setup_window"])
        return e2e(result, statistics.median(
            setup_seconds(w) for w in windows))

    import layers

    plain = phase("untraced", seconds / 2)
    spans_file = workdir / "spans.json"
    traced = phase("traced", seconds / 2, spans_out=spans_file)
    plain_e2e, traced_e2e = e2e(plain), e2e(traced)
    export = json.loads(spans_file.read_text())
    ledger = traced["ledger"]
    records = list(ledger.records.values())
    library_s = srv.library_times(traced) if paced else None
    metrics = layers.library_layers(export)
    metrics.update(layers.service_layers(export, records, library_s))
    metrics["gateway.result_ms.p50"] = layers._p(ledger.result_ms, 50)
    metrics["gateway.result_ms.p90"] = layers._p(ledger.result_ms, 90)
    metrics["gateway.rejected"] = ledger.rejected
    metrics["client.retries"] = traced["retries"]
    text = traced["metrics_text"]
    metrics["fusion.fused_jobs"] = srv.counter_value(
        text, "service_fused_jobs_total")
    metrics["fusion.rejected"] = srv.counter_value(
        text, "fusion_rejected_total")
    if paced:
        metrics["loadgen.lateness_ms.p90"] = layers._p(
            srv.paced_lateness(traced), 90)
        arrivals = list(ledger.arrivals.values())
        metrics["dedup_ratio"] = sum(
            1 for a in arrivals if a.get("dedup")) / len(arrivals)
    if paced:
        metrics["trace.overhead_frac"] = (
            traced_e2e[0]["complete_ms.p50"][0]
            / plain_e2e[0]["complete_ms.p50"][0] - 1.0
        )
    else:
        metrics["trace.overhead_frac"] = (
            plain_e2e[0]["jobs_per_s"][0]
            / traced_e2e[0]["jobs_per_s"][0] - 1.0
        )
    metrics.update({name: plain_e2e[0][name][0] for name in TAILS})
    return (layers.complete(metrics), plain_e2e[1] + traced_e2e[1],
            plain_e2e[2] + traced_e2e[2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    from calibrate import Sampler

    try:
        if args.workload.startswith("serve-"):
            with Sampler(workdir) as sampler:
                metrics, attempted, failed = serving(
                    args.workload, args.seed, args.seconds,
                    bool(args.trace), workdir, sampler)
        else:
            metrics, attempted, failed = library(
                args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in TAILS
        }
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"env": fingerprint()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
