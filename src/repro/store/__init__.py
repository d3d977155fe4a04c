"""Persistent, content-addressed caching of simulation results.

The paper's experiments are grids, and :class:`~repro.core.experiment.SweepSpec`
makes those grids combinatorially large — yet every cell is a pure function
of its inputs (program model, trace scale, memory latency, resolved
machine).  This package exploits that purity: :func:`cell_key` derives a
stable content hash of exactly those inputs, and :class:`ResultStore` maps
the hash to the cell's persisted :class:`~repro.core.result.RunResult`.

The :class:`~repro.core.experiment.Runner` threads the store through a
sweep: it consults the store before dispatching cells and writes each
freshly simulated cell back the moment it completes, so

* a sweep killed mid-run and restarted re-simulates only unfinished cells,
* an identical warm re-run simulates nothing at all, and
* the store stays *provenance-only* — a cache hit is equal to a fresh
  simulation in every comparable field (``cached``/``store_key`` are
  excluded from equality), so enabling it can never change a result.

Manage the store from the command line with ``repro cache stats``,
``repro cache gc`` and ``repro cache clear``; see :mod:`repro.store.store`
for the on-disk layout.

The package is a lazy facade (PEP 562): :mod:`repro.store.keys`, which pulls
in the timing-model and trace-generator versions it hashes, loads at the
first :func:`cell_key`, so opening a store to list or evict entries loads
neither simulator nor trace code.
"""

from repro import _lazy_exports

__all__ = [
    "KEY_SCHEME_VERSION",
    "STORE_FORMAT_VERSION",
    "ResultStore",
    "StoreEntry",
    "cell_key",
    "default_store_root",
]

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.store.keys": ["KEY_SCHEME_VERSION", "cell_key"],
        "repro.store.store": [
            "STORE_FORMAT_VERSION",
            "ResultStore",
            "StoreEntry",
            "default_store_root",
        ],
    },
)
