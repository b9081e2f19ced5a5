"""The low-level kernels on the compact graph encoding, all pure Python.

The routines live in :mod:`plumbjsj._kernel.pure`; this package re-exports
them, and the rest of the library looks them up here by attribute.
``BACKEND`` names the implementation, reported as
``plumbjsj.KERNEL_BACKEND``.
"""

from __future__ import annotations

from plumbjsj._kernel import pure

BACKEND = "pure"

propagation_consistent = pure.propagation_consistent
paths_consistent = pure.paths_consistent
maximal_consistent_masks = pure.maximal_consistent_masks

__all__ = [
    "BACKEND",
    "propagation_consistent",
    "paths_consistent",
    "maximal_consistent_masks",
    "pure",
]
