"""Metrics exports against the bytes an event-counting hub produced.

The hub's nine traffic families (``buffer_ops_total``,
``buffer_misses_total``, ``tier_hits_total``, ``tier_installs_total``,
``tier_evictions_total``, ``tier_write_backs_total``,
``migrations_total``, ``clean_drops_total``,
``dirty_page_flushes_total``) are written from the window's
``BufferStats`` delta at finalize.  They used to be counted event by
event.  Each seeded cell below pins the SHA-256 of what
``--metrics-out`` would write for it — the Prometheus text of the
merged snapshot plus the cell's JSONL lines — as recorded when the hub
still counted the stream, so a family, label, value or series that
moved shows as a different digest.  Each cell also asserts that the
families its shape exercises are non-zero, so no digest can hold
vacuously.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.executor import Cell, Effort, run_cells, run_options
from repro.bench.experiments.common import (
    HYMEM_DB_GB,
    HYMEM_SHAPE,
    POLICY_DB_GB,
    POLICY_SHAPE,
)
from repro.core.buffer_manager import BufferManagerConfig
from repro.core.policy import HYMEM_POLICY, SPITFIRE_LAZY, MigrationPolicy
from repro.hardware.pricing import HierarchyShape
from repro.obs.export import merge_snapshots, prometheus_text, snapshot_jsonl_lines
from repro.pages.granularity import LoadingUnit
from repro.workloads.tenancy import TenantSpec

SHORT = Effort(warmup_ops=1_000, measure_ops=2_000)

TRAFFIC = ("buffer_ops_total", "buffer_misses_total", "tier_hits_total",
           "tier_installs_total", "tier_evictions_total",
           "tier_write_backs_total", "migrations_total", "clean_drops_total",
           "dirty_page_flushes_total")
#: What every reading cell with a working set beyond its buffers does.
READ_MISS = {"buffer_ops_total", "buffer_misses_total", "tier_hits_total",
             "tier_installs_total", "tier_evictions_total"}

HALF_N_W = MigrationPolicy(0.01, 0.01, 0.2, 0.5, name="Lazy-Nw0.5")

TENANTS = (
    TenantSpec(name="oltp", mix="YCSB-BA", skew=0.9, db_gigabytes=0.5,
               seed=7),
    TenantSpec(name="scan", mix="YCSB-RO", skew=0.0, db_gigabytes=4.0,
               weight=2.0, seed=11),
)

#: name -> (cell, run options, the families (or single series) that must
#: be non-zero, digest recorded when the hub counted the event stream).
CELLS = {
    "ycsb_ro_lazy_100gb": (
        Cell.ycsb("ro-lazy", POLICY_SHAPE, SPITFIRE_LAZY, "YCSB-RO",
                  POLICY_DB_GB, effort=SHORT),
        {},
        READ_MISS | {"migrations_total", "clean_drops_total"},
        "0e73b38a6cb6f1b1d7ef5910aec89dc9d74c494a14cc6508037265b9bb81a0ce",
    ),
    # Small buffers and N_w = 0.5: dirty victims leave DRAM both ways
    # and NVM fills, so both tiers write back; checkpoints flush.
    "tpcc_wal_100gb": (
        Cell.tpcc("tpcc", HierarchyShape(2.0, 8.0, 200.0), HALF_N_W,
                  POLICY_DB_GB,
                  effort=Effort(warmup_ops=1_000, measure_ops=6_000)),
        {},
        set(TRAFFIC) | {'tier_write_backs_total{src="DRAM"}',
                        'tier_write_backs_total{src="NVM"}'},
        "0d47e69375b0675cd79e7a5a9cc9623da7b085f4db18320b0c7c400604e9d098",
    ),
    "fig11_hymem_256b": (
        Cell.ycsb("HyMem/256B", HYMEM_SHAPE, HYMEM_POLICY, "YCSB-RO",
                  HYMEM_DB_GB, effort=SHORT,
                  bm_config=BufferManagerConfig(
                      fine_grained=True, mini_pages=False,
                      loading_unit=LoadingUnit(256))),
        {},
        READ_MISS | {"migrations_total"},
        "f0839d1cfc1c30555048f2e028a88eab92af76ebb17fb4133630c38e4c27e5cf",
    ),
    "two_tenants": (
        Cell.multi_tenant("mt", HierarchyShape(0.5, 1.0, 64.0),
                          SPITFIRE_LAZY, TENANTS, effort=SHORT),
        {},
        READ_MISS | {"tier_write_backs_total", "tenant_ops_total"},
        "1ee81c3d80f6e7398fa0cf74be4be5cffac84a3562d3c949b0628a8659ce0a29",
    ),
    "ycsb_ro_8gb_batched": (
        Cell.ycsb("ro-8gb", POLICY_SHAPE, SPITFIRE_LAZY, "YCSB-RO", 8.0,
                  effort=SHORT),
        {},
        {"buffer_ops_total", "tier_hits_total"},
        "7f50e8fa927341cc5e9bdf71a60ddd9ba2267101e0ed6301018b2e976d55c678",
    ),
    "ycsb_ba_decisions": (
        Cell.ycsb("ba-decisions", POLICY_SHAPE, SPITFIRE_LAZY, "YCSB-BA",
                  POLICY_DB_GB, effort=SHORT),
        {"trace_decisions": 0.05},
        READ_MISS | {"migrations_total", "migration_decisions_total",
                     "eviction_victims_total"},
        "755e89c4a923aef86ef1bd51908930e7c432b205142d37d96ac579268e050126",
    ),
}


def nonzero(metrics: dict) -> set[str]:
    """Names and keys of the non-zero counters in one hub snapshot."""
    return {name for key, entry in metrics["registry"].items()
            if entry["kind"] == "counter" and entry["state"]
            for name in (key, entry["name"])}


def export_digest(label: str, metrics: dict) -> str:
    """SHA-256 of the Prometheus text and JSONL lines ``--metrics-out``
    writes for one cell."""
    text = prometheus_text(merge_snapshots([metrics]))
    lines = snapshot_jsonl_lines(metrics, label)
    return hashlib.sha256((text + "\n".join(lines)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_export_matches_event_counted_bytes(name):
    cell, options, exercised, digest = CELLS[name]
    with run_options(collect_metrics=True, **options):
        result = run_cells([cell])[0]
    # Every full-page YCSB cell vectorises some of its hits; TPC-C,
    # tenant streams and fine-grained layouts run per op.
    assert (result.batch_runs > 0) is (
        cell.workload.kind == "ycsb" and not cell.tenants
        and not cell.bm_config.fine_grained)
    assert not exercised - nonzero(result.metrics)
    assert export_digest(cell.label, result.metrics) == digest
