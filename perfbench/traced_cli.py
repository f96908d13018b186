"""Run the `motivic` command with the layer tracer installed.

    python3 perfbench/traced_cli.py <motivic arguments>

The process is the same shape as `python3 -m motivic.cli`: the command's
stdout is untouched, and the trace is written to stderr as one line that
starts with "perfbench-trace " followed by JSON.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import motivic.cli  # noqa: E402

from perfbench.tracer import TRACE_MARKER, Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    try:
        code = motivic.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARKER + json.dumps(tracer.dump()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
