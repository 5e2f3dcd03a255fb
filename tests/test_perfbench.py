"""The benchmark's contract with the package, checked from the test suite.

``perfbench/`` wraps package call sites by name and checks workload
outputs; a rename or a changed output there fails these tests instead of
silently zeroing a metric.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_selftest_reports_no_failures():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 failure(s)"


def test_tracer_finds_every_wrapped_call_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    # the tracer still wraps sparsify.dense_tile, which the package no
    # longer has (ROADMAP item 6); every other wrapped name must exist
    assert tracer.absent == ["binsparx.sparsify:dense_tile"]
