"""Conformally fibered Kahler geometry: chart algebra, curvature splitting,
reduced collapse flows and their singularity diagnostics.

The top level holds the names that README's library example and scripts/
import; everything else is imported from its module."""

__version__ = "0.1.0"

from .calabi_flow import HirzebruchParams, RunSettings, run_flow
from .singularity_analyzer import classify_type, pick_blowup_sequence

__all__ = [
    "HirzebruchParams",
    "RunSettings",
    "__version__",
    "classify_type",
    "pick_blowup_sequence",
    "run_flow",
]
