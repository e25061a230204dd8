"""numpy for the batch-execution machinery, imported where first used.

The columnar batch path (``core/batch_path.py``, ``Device.read_batch``,
``Histogram.observe_batch``, ``OpBatch``) vectorises with numpy when it
is installed (the ``sci`` extra).  Nothing imports numpy at start-up:
:func:`numpy` imports it where the first array is built, and
:func:`is_ndarray` answers no while numpy is not loaded (no value can
be an array before).  Without numpy every entry point degrades to the
per-op code path, so the package keeps working — just without the
batched speedup.  ``np`` and ``HAVE_NUMPY`` resolve on first read, for
callers that want the module itself.
"""

from __future__ import annotations

import sys

_UNSET = object()
_numpy = _UNSET


def numpy():
    """The numpy module, imported on first call; None where it is not
    installed."""
    global _numpy
    if _numpy is _UNSET:
        try:
            import numpy as module
        except ImportError:
            module = None
        _numpy = module
    return _numpy


def is_ndarray(value) -> bool:
    """Whether ``value`` is a numpy array, without importing numpy."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def __getattr__(name: str):
    if name == "np":
        return numpy()
    if name == "HAVE_NUMPY":
        return numpy() is not None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["HAVE_NUMPY", "is_ndarray", "np", "numpy"]
