"""Machine noise: how much a fixed amount of work swings between processes.

    python3 benchmark/noise.py [--runs 10]

Runs two fixed loops, each in its own fresh interpreter, --runs times:
a memory-heavy one that builds and reduces dicts of tuples (the shape of
m36's inner loops) and a pure integer-arithmetic one.  Prints the min,
median, max and the spread between quartiles as a share of the median.
A claimed change smaller than the dict loop's spread needs many paired runs.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys

LOOPS = {
    "dict": (
        "d = {}\n"
        "for i in range(600000):\n"
        "    k = (i % 997, i % 65, i % 7)\n"
        "    d[k] = d.get(k, 0) + i\n"
        "    if len(d) > 50000:\n"
        "        d.clear()\n"
    ),
    "arith": (
        "x = 0\n"
        "for i in range(3000000):\n"
        "    x = (x * 31 + i) % 1000003\n"
    ),
}

TIMER = (
    "import time\n"
    "t = time.perf_counter()\n"
    "exec(compile(%r, 'loop', 'exec'))\n"
    "print(time.perf_counter() - t)\n"
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    for name, body in LOOPS.items():
        times = []
        for _ in range(args.runs):
            out = subprocess.run([sys.executable, "-c", TIMER % body],
                                 capture_output=True, text=True, check=True)
            times.append(float(out.stdout))
        q = statistics.quantiles(times, n=4)
        med = statistics.median(times)
        print("%-6s min %.3f s  median %.3f s  max %.3f s  quartile spread %.1f%%"
              % (name, min(times), med, max(times), 100 * (q[2] - q[0]) / med))
    return 0


if __name__ == "__main__":
    sys.exit(main())
