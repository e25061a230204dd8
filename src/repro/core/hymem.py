"""HyMem baseline configuration (van Renen et al., SIGMOD '18; §2.1, §6.5).

HyMem is the prior three-tier buffer manager the paper compares against.
Its behaviour maps onto the Spitfire substrate as:

* eager DRAM migration (``D_r = D_w = 1``),
* no SSD→NVM fetches (``N_r = 0``; SSD pages go straight to DRAM),
* NVM admission decided by an admission queue on DRAM eviction,
* optional cache-line-grained loading and mini pages.

:func:`make_hymem` builds a :class:`~repro.core.buffer_manager.BufferManager`
configured this way, so every HyMem experiment runs on exactly the same
substrate (devices, pools, replacement) as Spitfire — which is what makes
the ablation in Fig. 12 an apples-to-apples comparison.
"""

from __future__ import annotations

from ..hardware.cost_model import StorageHierarchy
from ..pages.granularity import HYMEM_LOADING_UNIT, LoadingUnit
from .buffer_manager import BufferManager, BufferManagerConfig
from .policy import HYMEM_POLICY


def make_hymem(
    hierarchy: StorageHierarchy,
    fine_grained: bool = True,
    mini_pages: bool = True,
    loading_unit: LoadingUnit | None = None,
    admission_queue_size: int | None = None,
    seed: int = 42,
) -> BufferManager:
    """Build a buffer manager configured as HyMem.

    Parameters
    ----------
    fine_grained, mini_pages:
        HyMem's two layout optimizations; the Fig. 12 ablation toggles
        them individually.
    loading_unit:
        Defaults to HyMem's original 64 B cache-line unit; §6.5 retunes
        it to 256 B for Optane.
    admission_queue_size:
        Entries in the NVM admission queue; None applies §6.5's
        recommendation (half the NVM buffer's page count).
    """
    if loading_unit is None:
        loading_unit = HYMEM_LOADING_UNIT
    config = BufferManagerConfig(
        fine_grained=fine_grained,
        mini_pages=mini_pages and fine_grained,
        loading_unit=loading_unit,
        admission_queue_size=admission_queue_size,
        seed=seed,
    )
    return BufferManager(hierarchy, HYMEM_POLICY, config)
