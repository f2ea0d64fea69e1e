"""The vectorized batch arrival path (repro.traffic.batch).

* numpy is an optional accelerator: every batch function gives the same
  floats, flow indices and delivered packets with numpy and with the
  module's numpy handle patched to ``None``;
* importing ``repro.traffic``, the CLI or a paper experiment loads
  neither the batch module nor numpy;
* the ``scale`` experiment, which drives 10^3 flows through a
  ``FleetTimeline`` attached with ``Simulator.attach_stream``, keeps its
  schedule digest.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from math import inf

import pytest

import repro
from repro.traffic import batch


def _plain(values):
    return values.tolist() if hasattr(values, "tolist") else list(values)


def _batch_outputs():
    """Every batch function on small inputs, as plain Python values."""
    cbr = batch.cbr_times(1e6, 12_000, 40, start_time=0.25)
    poisson = batch.poisson_times(random.Random(11), 2e5, 4000, 60, start_time=0.1)
    fleet = batch.cbr_fleet_times(7, 3e5, 8000, 9)
    # stagger * (n_flows - 1) > interval: the fleet needs a sort.
    spread_fleet = batch.cbr_fleet_times(5, 1e6, 1000, 6, stagger=0.004)
    specs = [
        batch.FlowArrivals("cbr", cbr, 12_000),
        batch.FlowArrivals("poisson", poisson, 4000, rate=2e5),
        # Arrives with two of cbr's packets: ties keep spec order.
        batch.FlowArrivals(
            "tie", [0.25, 0.25 + 12_000 / 1e6, 1.0], 100, lengths=[100, 200, 300]
        ),
        # A second spec of flow "cbr": one seqno sequence across both.
        batch.FlowArrivals("cbr", batch.cbr_times(1e6, 12_000, 5, start_time=0.3), 12_000),
    ]
    merged = batch.merge_arrivals(specs)
    delivered = []
    timeline = batch.timeline_from_specs(
        lambda p: delivered.append((p.flow, p.seqno, p.arrival, p.length, p.rate)),
        specs,
        chunk=7,
    )
    while timeline.next_time != inf:
        timeline.fire()
    return {
        "cbr": _plain(cbr),
        "poisson": _plain(poisson),
        "fleet": [_plain(a) for a in fleet],
        "spread_fleet": [_plain(a) for a in spread_fleet],
        "merged": [_plain(a) for a in merged],
        "delivered": delivered,
    }


def test_batch_outputs_identical_with_and_without_numpy(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(batch, "_np", None)
        pure = _batch_outputs()
    assert len(pure["delivered"]) == 40 + 60 + 3 + 5
    assert pure["merged"][0] == sorted(pure["merged"][0])
    pytest.importorskip("numpy")
    assert batch._np is not None
    assert _batch_outputs() == pure


_IMPORT_CHECK = """
import sys
import repro, repro.traffic, repro.servers, repro.cli, repro.experiments.figure1
assert "numpy" not in sys.modules, "numpy imported by a non-batch import"
assert "repro.traffic.batch" not in sys.modules
"""


def test_non_batch_imports_do_not_load_numpy():
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
