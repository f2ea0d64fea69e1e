"""Network substrate: multi-hop tandems."""

from repro.network.path import Tandem

__all__ = ["Tandem"]
