"""Self-test of the benchmark's tracer on reduced inputs.

    python3 -m pytest perfbench/test_counts.py -q

Traced counts must repeat exactly between runs, tracing must not change a
result, and an entry point missing from the package must be reported, not
raise.  The classical workload is left out: its cost is set by the
smallest frequency of its fixed grid, which no public argument reduces.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

from spans import ENTRIES, Entry, Tracer, layer_metrics
from workloads import WORKLOADS

COUNTS = ("specfun.calls", "specfun.bateman_entries", "specfun.pcf_entries",
          "scattering.calls", "translation.calls", "translation.gram_entries",
          "roundtrip.assemble_entries", "roundtrip.logdet_calls",
          "roundtrip.logdet_gflop")

# The layer each reduced workload must reach.
REACHES = {"edge-tilt85": "translation.calls", "body-gap01": "scattering.calls",
           "thermal-knife": "specfun.bateman_entries"}


def _traced_counts(workload, inputs):
    with Tracer() as tracer:
        out = tracer.run(workload.evaluate, inputs, reduced=True)
    metrics = layer_metrics(tracer)
    return out, {k: metrics[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(REACHES))
def test_counts_repeat_and_values_unchanged(name):
    workload = WORKLOADS[name]
    inputs = workload.inputs(7)
    plain = workload.evaluate(inputs, reduced=True)
    first, counts1 = _traced_counts(workload, inputs)
    second, counts2 = _traced_counts(workload, inputs)
    assert counts1 == counts2
    assert counts1[REACHES[name]] > 0
    assert counts1["roundtrip.logdet_calls"] > 0
    assert first.value == second.value == plain.value


def test_missing_entry_is_reported_not_raised():
    entries = ENTRIES + (Entry("no_such_entry_point", "specfun"),)
    with Tracer(entries=entries) as tracer:
        pass
    assert tracer.untraced == ["no_such_entry_point"]


def test_tracer_restores_entry_points():
    import paracasimir.energy as energy

    original = energy.logdet_one_minus
    with Tracer():
        assert energy.logdet_one_minus is not original
    assert energy.logdet_one_minus is original
