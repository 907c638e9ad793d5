"""One library set-up, as a fresh process pays it: import, build inputs.

Usage: ``python3 perfbench/setup_probe.py <table1-n9|fig4-n16>``;
``run.py`` times three of these and reports the median as ``setup_s``.
The last stdout line holds the CPU seconds this process used up to the
end of the set-up (interpreter start included) and the CPU seconds one
calibration slice unit took right after it, for normalization.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

if __name__ == "__main__":
    from calibrate import Calibrator
    from library import SUITES

    SUITES[sys.argv[1]].build_tables()
    used = time.process_time()
    print(used, Calibrator().slice(size=3))
