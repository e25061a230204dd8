"""Multi-tier data migration policies (§3 of the paper).

A policy is the tuple ``<D_r, D_w, N_r, N_w>`` of probabilities with
which the buffer manager migrates data *into* DRAM (``D``) and *into*
NVM (``N``) while serving reads (``r``) and writes (``w``):

* ``D_r`` — probability of promoting an NVM-resident page to DRAM when a
  read hits it in NVM (§3.1; ``D_r = 1`` is HyMem's eager behaviour).
* ``D_w`` — probability of routing a write through DRAM rather than
  writing the NVM copy in place (§3.2).
* ``N_r`` — probability that an SSD fetch is installed in NVM rather
  than bypassing NVM straight into DRAM (§3.3).
* ``N_w`` — probability that a dirty page evicted from DRAM is admitted
  into NVM rather than written straight to SSD (§3.4).  HyMem replaces
  this probability with an admission queue
  (:class:`~repro.core.admission.AdmissionQueue`).

The presets at the bottom transcribe Table 3 of the paper.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass


class NvmAdmission(enum.Enum):
    """How NVM admission on DRAM eviction is decided."""

    #: Bernoulli draw with probability ``N_w`` (Spitfire, §3.4).
    PROBABILISTIC = "probabilistic"
    #: HyMem's admission queue: admit on the second recent consideration.
    ADMISSION_QUEUE = "admission_queue"


@dataclass(frozen=True)
class MigrationPolicy:
    """A point in the paper's policy taxonomy.

    Probabilities are clamped to ``[0, 1]`` at validation time rather than
    silently, so a typo like ``d_r=10`` fails loudly.
    """

    d_r: float = 1.0
    d_w: float = 1.0
    n_r: float = 1.0
    n_w: float = 1.0
    nvm_admission: NvmAdmission = NvmAdmission.PROBABILISTIC
    name: str = ""

    def __post_init__(self) -> None:
        for field_name in ("d_r", "d_w", "n_r", "n_w"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name}={value} is not a probability")

    # ------------------------------------------------------------------
    # Decision draws. Each takes the RNG explicitly so that callers keep
    # determinism under their control (tests seed it; the buffer manager
    # owns one RNG per instance).
    # ------------------------------------------------------------------
    def promote_to_dram_on_read(self, rng: random.Random) -> bool:
        """Should an NVM-resident page move to DRAM to serve this read?"""
        return _draw(rng, self.d_r)

    def route_write_through_dram(self, rng: random.Random) -> bool:
        """Should this write use DRAM (vs writing the NVM copy in place)?"""
        return _draw(rng, self.d_w)

    def admit_to_nvm_on_fetch(self, rng: random.Random) -> bool:
        """Should an SSD fetch be installed in NVM (vs bypassing to DRAM)?"""
        return _draw(rng, self.n_r)

    def admit_to_nvm_on_eviction(self, rng: random.Random) -> bool:
        """Should a page evicted from DRAM be admitted into NVM?

        Only meaningful for :attr:`NvmAdmission.PROBABILISTIC`; the buffer
        manager consults the admission queue instead when the policy uses
        :attr:`NvmAdmission.ADMISSION_QUEUE`.
        """
        return _draw(rng, self.n_w)

    # ------------------------------------------------------------------
    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.d_r, self.d_w, self.n_r, self.n_w)

    def label(self) -> str:
        if self.name:
            return self.name
        return f"<{self.d_r}, {self.d_w}, {self.n_r}, {self.n_w}>"


class PolicySlot:
    """A swappable reference to the currently active migration policy.

    The buffer manager's components (access path, space manager, flush
    engine) and the :class:`~repro.core.migration.MigrationEngine` all
    read the policy from one shared slot instead of reaching back into
    the facade, so each is constructible on its own in tests.  The
    adaptive tuner swaps policies at runtime: :meth:`set` replaces the
    whole (immutable) policy object under a lock, and hot paths read
    :attr:`current` with a plain attribute load — an atomic reference
    read, so taking the lock there would add cost without adding safety.
    """

    __slots__ = ("current", "_lock")

    def __init__(self, policy: MigrationPolicy) -> None:
        self.current = policy
        self._lock = threading.Lock()

    @property
    def policy(self) -> MigrationPolicy:
        with self._lock:
            return self.current

    def set(self, policy: MigrationPolicy) -> None:
        with self._lock:
            self.current = policy


def _draw(rng: random.Random, probability: float) -> bool:
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    return rng.random() < probability


#: Spitfire-Eager from Table 3: every migration happens.
SPITFIRE_EAGER = MigrationPolicy(1.0, 1.0, 1.0, 1.0, name="Spitfire-Eager")

#: Spitfire-Lazy from Table 3: lazy DRAM (0.01), moderately eager NVM fetch
#: (0.2), always admit DRAM evictions to NVM.
SPITFIRE_LAZY = MigrationPolicy(0.01, 0.01, 0.2, 1.0, name="Spitfire-Lazy")

#: HyMem from Table 3: eager DRAM, never SSD→NVM on fetch, admission queue
#: on DRAM eviction.
HYMEM_POLICY = MigrationPolicy(
    1.0, 1.0, 0.0, 1.0, nvm_admission=NvmAdmission.ADMISSION_QUEUE, name="HyMem"
)

#: The canonical DRAM-SSD policy: no NVM tier, everything through DRAM.
DRAM_SSD_POLICY = MigrationPolicy(1.0, 1.0, 0.0, 0.0, name="DRAM-SSD")

#: The NVM-SSD policy: no DRAM tier, everything through NVM.
NVM_SSD_POLICY = MigrationPolicy(0.0, 0.0, 1.0, 1.0, name="NVM-SSD")

#: Presets of Table 3 plus the two-tier baselines, keyed by label.
POLICY_PRESETS = {
    policy.name: policy
    for policy in (
        SPITFIRE_EAGER,
        SPITFIRE_LAZY,
        HYMEM_POLICY,
        DRAM_SSD_POLICY,
        NVM_SSD_POLICY,
    )
}
