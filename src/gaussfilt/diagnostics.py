"""Mutable counters for numerical-repair and optimizer events.

Kernels accept an optional Diagnostics instance and bump counters in place;
filters surface the counts per step so silent repairs stay visible.
"""

from dataclasses import dataclass


@dataclass
class Diagnostics:
    jitters: int = 0
    fallbacks: int = 0
    bfgs_iterations: int = 0
