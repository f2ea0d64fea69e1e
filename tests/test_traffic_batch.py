"""The batch arrival path (repro.traffic.batch).

* ``cbr_fleet_times`` fills typed arrays in pure Python with the
  float64 expression numpy broadcasts, so its times and flow indices
  equal numpy's bit for bit; numpy is a test-only dependency, kept as
  that reference;
* a ``FleetTimeline`` delivers the fleet in time order with per-flow
  sequence numbers;
* importing any module under ``repro`` loads neither numpy nor
  networkx;
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


def _numpy_fleet_times(n_flows, rate, packet_length, packets_per_flow):
    """The broadcast numpy expression ``cbr_fleet_times`` reproduces."""
    np = pytest.importorskip("numpy")
    interval = packet_length / rate
    stagger = interval / n_flows
    flow_offsets = np.arange(n_flows, dtype=np.float64) * stagger
    pkt_offsets = np.arange(packets_per_flow, dtype=np.float64) * interval
    grid = pkt_offsets[:, None] + flow_offsets[None, :]
    flows = np.tile(np.arange(n_flows, dtype=np.int64), packets_per_flow)
    return grid.reshape(-1), flows


def test_batch_outputs_identical_with_and_without_numpy():
    for args in ((7, 3e5, 8000, 9), (100_000, 12.0, 1000, 1)):
        times, flows = batch.cbr_fleet_times(*args)
        ref_times, ref_flows = _numpy_fleet_times(*args)
        assert (times.typecode, flows.typecode) == ("d", "q")
        assert times.tobytes() == ref_times.tobytes()
        assert flows.tobytes() == ref_flows.tobytes()


def test_fleet_timeline_delivers_in_time_order():
    times, flows = batch.cbr_fleet_times(7, 3e5, 8000, 9)
    delivered = []
    timeline = batch.FleetTimeline(
        lambda p: delivered.append((p.arrival, p.flow, p.seqno, p.length)),
        times,
        flows,
        8000,
        chunk=5,
    )
    while timeline.next_time != inf:
        timeline.fire()
    assert len(delivered) == 7 * 9 and timeline.remaining == 0
    assert delivered == sorted(delivered)
    assert [d[0] for d in delivered] == list(times)
    for flow in range(7):
        assert [d[2] for d in delivered if d[1] == flow] == list(range(9))


_IMPORT_CHECK = """
import pkgutil
import sys

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith(".__main__"):  # importing it runs the CLI
        __import__(module.name)
loaded = [name for name in ("numpy", "networkx") if name in sys.modules]
assert not loaded, f"loaded by a repro module: {loaded}"
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
