"""Transactions: MVTO concurrency control and timestamp management."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "mvto": ("INFINITY_TS", "MvtoStore", "Version", "VersionChain",
             "run_transaction"),
    "transaction": ("TimestampOracle", "Transaction", "TransactionAborted",
                    "TxnState"),
})
