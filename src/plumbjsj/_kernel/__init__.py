"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``PLUMBJSJ_PURE=1`` in the environment to force the interpreted kernels
(useful for benchmarking and for debugging the compiled module).  The subset
oracle is the pure component-split one under every backend; the compiled
module's oracle is the exhaustive 2^n scan that it replaces.  The mask check
that the reduction tree runs on its nodes is pure under every backend too.
"""

from __future__ import annotations

import os

from plumbjsj._kernel import pure

if os.environ.get("PLUMBJSJ_PURE"):
    _impl = pure
    BACKEND = "pure"
else:
    try:
        from plumbjsj._kernel import _speedups as _impl  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        _impl = pure
        BACKEND = "pure"

propagation_consistent = _impl.propagation_consistent
paths_consistent = _impl.paths_consistent
maximal_consistent_masks = pure.maximal_consistent_masks
mask_consistent = pure.mask_consistent

__all__ = [
    "BACKEND",
    "propagation_consistent",
    "paths_consistent",
    "maximal_consistent_masks",
    "mask_consistent",
    "pure",
]
