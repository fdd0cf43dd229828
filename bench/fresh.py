"""Fresh-interpreter probe used by ``bench/run.py``.

Times ``import dqwalk.cli`` plus ``build_parser()``, then, if CLI
arguments are given, makes that one invocation.  Prints one JSON line:
the set-up time, the exit code (null without an invocation) and the peak
resident set size of this process image.

    python3 bench/fresh.py [dqwalk CLI arguments ...]
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_kb() -> int:
    """High-water RSS since exec, from ``VmHWM``.  ``ru_maxrss`` is not
    used: Linux carries it across exec, so a child would report its
    parent's peak whenever that is larger."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from dqwalk import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    rc = cli.main(argv) if argv else None
    print(json.dumps({"setup_s": setup_s, "rc": rc, "peak_rss_kb": peak_rss_kb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
