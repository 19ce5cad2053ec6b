"""The names the benchmark calls in m36 keep working.

benchmark/child.py and benchmark/tracing.py change only with the benchmark,
not with the program, so a refactor that renames or re-signs what they reach
would break `benchmark/run.py --trace 1` with no other test noticing.  The
check runs in a fresh interpreter, since tracing.install patches m36 in
place.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import inspect

import tracing
from m36 import chowring, cli, labels

tracer = tracing.Tracer()
tracing.install(tracer)
cfg = labels.config_all_p1()
inspect.signature(cli._table).bind(cfg, "two-prime")
inspect.signature(cli.parse_expression).bind("F[12]")
inspect.signature(chowring.is_zero_in).bind(None, None)
inspect.signature(chowring.build_quotient).bind(cfg, mode="exact")
assert isinstance(chowring.GradedQuotientTable.torsion_certified_degrees, property)
assert cli.parse_expression("F[12]*F[13]").degrees() == [2]
spans = {rec[tracing.NAME] for rec in tracer.spans}
assert {"cli.parse", "chowring.mul"} <= spans, spans
print("ok")
"""


def test_tracer_installs_and_benchmark_names_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "benchmark"), str(ROOT / "src")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
