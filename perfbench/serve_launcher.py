"""Start ``repro serve`` from the checkout with a speed probe.

Usage::

    python3 perfbench/serve_launcher.py SPEED_OUT [--spans-out PATH] serve ...

This runs ``python -m repro.cli serve ...`` from the checkout's ``src``
with one addition: the worker thread times a one-unit calibration slice
around every decompose and after each component (see
``calibrate.install_worker_probe``), written to ``SPEED_OUT`` at exit.
With ``--spans-out`` the layer wrappers of ``spans.py`` are installed
too, and the recorded spans are written to ``PATH`` as JSON at exit.
The server stops itself if the process that started it dies.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _exit_with_parent() -> None:
    """SIGTERM this server (graceful stop) once the benchmark is gone."""
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGTERM)


def main(argv):
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    from calibrate import install_worker_probe

    speed_out, argv = argv[0], argv[1:]
    on_slice = None
    if argv[:1] == ["--spans-out"]:
        out = Path(argv[1])
        argv = argv[2:]
        from spans import SpanRecorder, install_library, install_service

        recorder = SpanRecorder()
        install_library(recorder)
        install_service(recorder)
        atexit.register(
            lambda: out.write_text(json.dumps(recorder.export()))
        )
        on_slice = lambda seconds: recorder.leaf("calibration", seconds)
    install_worker_probe(speed_out, on_slice)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
