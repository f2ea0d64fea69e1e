"""Traffic sources: CBR/bulk, Poisson, on-off, MPEG VBR, shaping.

The batch arrival API for fleets of 10^5+ flows lives in
:mod:`repro.traffic.batch` and is not re-exported here: no per-packet
source needs it. Import batch names from ``repro.traffic.batch``.
"""

from repro.traffic.base import Ingress, Source
from repro.traffic.cbr import BulkSource, CBRSource, PacedWindowSource
from repro.traffic.leaky_bucket import LeakyBucketShaper, conforms
from repro.traffic.pareto import ParetoOnOffSource, pareto_sample
from repro.traffic.poisson import OnOffSource, PoissonSource
from repro.traffic.vbr_video import DEFAULT_GOP, VBRVideoSource

__all__ = [
    "Source",
    "Ingress",
    "CBRSource",
    "BulkSource",
    "PacedWindowSource",
    "PoissonSource",
    "OnOffSource",
    "ParetoOnOffSource",
    "pareto_sample",
    "VBRVideoSource",
    "DEFAULT_GOP",
    "LeakyBucketShaper",
    "conforms",
]
