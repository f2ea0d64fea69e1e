"""Traffic sources: CBR/bulk, Poisson, on-off, MPEG VBR, shaping.

The vectorized batch arrival API lives in :mod:`repro.traffic.batch`
and is not re-exported here: it is the only part of ``src/`` that
imports numpy, and no per-packet source needs it, so importing this
package loads neither. Import batch names from ``repro.traffic.batch``.
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
