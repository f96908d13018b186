"""Outside-in phase probes of the exhaustive scan, through the public
`scan_skew` arguments `mode` and `spot_stride`.

    python3 perfbench/probe.py

Prints one JSON object of seconds:
  hist_nospot_s  scan_skew(3, 3, "hist", spot_stride=0): decode plus Pf
  spot_s         scan_skew(3, 3, "hist") minus hist_nospot_s: the spot check
  rank_s         scan_skew(3, 3, "full") minus "hist": the rank minors
  pool_s         scan_skew(2, 5, "hist") at workers 2 minus workers 1,
                 median of POOL_REPEATS pairs: pool start, fork and merge
All (3, 3) scans run at workers 1.
"""

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motivic.counting import scan_skew  # noqa: E402

POOL_REPEATS = 5


def timed(*args, **kwargs):
    start = time.perf_counter()
    scan_skew(*args, **kwargs)
    return time.perf_counter() - start


def main():
    nospot = timed(3, 3, "hist", workers=1, spot_stride=0)
    hist = timed(3, 3, "hist", workers=1)
    full = timed(3, 3, "full", workers=1)
    pool = statistics.median(
        timed(2, 5, "hist", workers=2) - timed(2, 5, "hist", workers=1)
        for _ in range(POOL_REPEATS))
    print(json.dumps({"hist_nospot_s": nospot, "spot_s": hist - nospot,
                      "rank_s": full - hist, "pool_s": pool}))


if __name__ == "__main__":
    main()
