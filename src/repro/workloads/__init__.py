"""Workloads: YCSB, TPC-C, Zipfian generation, and trace replay."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "tenancy": ("MultiTenantWorkload", "TenantAccess", "TenantSpec"),
    "tpcc": ("GB_PER_WAREHOUSE", "PageAccess", "TpccWorkload"),
    "tpcc_engine": ("TpccEngine", "TpccStats"),
    "ycsb_engine": ("YcsbEngine", "YcsbEngineStats"),
    "trace": ("Trace",),
    "ycsb": ("COLUMN_SIZE", "MIXES", "NUM_COLUMNS", "TUPLE_SIZE",
             "TUPLES_PER_PAGE", "Operation", "OpKind", "YCSB_BA", "YCSB_RO",
             "YCSB_WH", "YcsbMix", "YcsbWorkload"),
    "zipf": ("ScrambledZipfianGenerator", "UniformGenerator",
             "ZipfianGenerator", "nurand", "scramble", "zeta"),
})
