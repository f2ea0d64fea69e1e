"""The vectorized batch arrival path (repro.traffic.batch).

* numpy is an optional accelerator: the fleet path gives the same
  floats, flow indices and delivered packets with numpy and with the
  module's numpy handle patched to ``None``;
* importing ``repro.traffic``, the CLI, ``repro.network`` or a paper
  experiment (the multi-hop ones included) loads neither the batch
  module, numpy nor networkx;
* the ``scale`` experiment, which drives 10^3 flows through a
  ``FleetTimeline`` attached with ``Simulator.attach_stream``, keeps its
  schedule digest.
"""

from __future__ import annotations

import os
import subprocess
import sys
from math import inf

import pytest

import repro
from repro.traffic import batch


def _plain(values):
    return values.tolist() if hasattr(values, "tolist") else list(values)


def _batch_outputs():
    """The fleet path on small inputs, as plain Python values."""
    times, flows = batch.cbr_fleet_times(7, 3e5, 8000, 9)
    delivered = []
    timeline = batch.FleetTimeline(
        lambda p: delivered.append((p.flow, p.seqno, p.arrival, p.length)),
        times,
        flows,
        8000,
        chunk=5,
    )
    while timeline.next_time != inf:
        timeline.fire()
    return {
        "times": _plain(times),
        "flows": _plain(flows),
        "delivered": delivered,
    }


def test_batch_outputs_identical_with_and_without_numpy(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(batch, "_np", None)
        pure = _batch_outputs()
    assert len(pure["delivered"]) == 7 * 9
    assert pure["times"] == sorted(pure["times"])
    pytest.importorskip("numpy")
    assert batch._np is not None
    assert _batch_outputs() == pure


_IMPORT_CHECK = """
import sys
import repro, repro.traffic, repro.servers, repro.cli, repro.experiments.figure1
import repro.network, repro.experiments.end_to_end_exp, repro.experiments.interop
assert "numpy" not in sys.modules, "numpy imported by a non-batch import"
assert "repro.traffic.batch" not in sys.modules
assert "networkx" not in sys.modules, "networkx imported by a default import"
"""


def test_default_imports_load_neither_numpy_nor_networkx():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_scale_digest_at_1000_flows():
    from repro.experiments.scale import run_scale

    (point,) = run_scale(flows=[1000]).data["points"]
    assert point["digest"] == "5a866581"
