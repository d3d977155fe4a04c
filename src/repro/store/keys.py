"""Content-addressed cache keys for simulation results.

A sweep cell is fully determined by its inputs: the program model and trace
scale (which fix the dynamic instruction stream), the memory latency, and the
resolved machine the cell runs on.  :func:`cell_key` hashes exactly that
description — nothing less, nothing more — so two cells share a key if and
only if the simulators would produce identical results:

* the canonical :class:`~repro.core.machine.MachineSpec` string and the
  per-family configuration block it builds
  (:meth:`~repro.core.machine.MachineSpec.to_config`), so a change to how a
  spec maps onto the mechanism layer changes the key too;
* the architecture label, because it travels on the result as provenance and
  a cache hit must restore the result byte-for-byte, label included;
* :data:`~repro.trace.generator.TRACE_GENERATOR_VERSION`, so changing how
  traces are generated invalidates every persisted result;
* :data:`~repro.engine.TIMING_MODEL_VERSION`, so changing what the
  simulators compute for an unchanged input invalidates them too; and
* :data:`KEY_SCHEME_VERSION`, so changing *this* hashing scheme does too.

Every machine is a :class:`~repro.core.registry.SpecArchitecture`, so every
cell has a key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING

from repro.core.config import RunConfig
from repro.engine import TIMING_MODEL_VERSION
from repro.trace.generator import TRACE_GENERATOR_VERSION

if TYPE_CHECKING:
    from repro.core.registry import SpecArchitecture

#: Version of the key derivation itself.  Bump when the payload layout or the
#: hashing below changes, so old store entries can never be misread as hits.
#: v2: v1 keys stripped a ``core=`` pin from the label, so a v1 entry under a
#: plain ``dva`` key may carry a ``dva@core=event`` label; v2 never serves them.
#: v3: a spec is the whole machine and its ``RunResult.spec`` provenance lists
#: only non-default fields (``ref`` is ``{"family": "ref"}``), so v2 payloads
#: would restore stale provenance.
KEY_SCHEME_VERSION = 3


def cell_key(
    program: str,
    scale: float,
    latency: int,
    simulator: "SpecArchitecture",
    config: RunConfig,
) -> str:
    """The content-addressed key of one sweep cell.

    Args:
        program: benchmark program name (case-insensitive).
        scale: trace scale factor.
        latency: memory latency in cycles.
        simulator: the resolved machine the cell runs on; its ``name`` label
            and its ``spec`` are both hashed.
        config: the cell's run configuration; unused, since ``latency`` and
            the spec describe the cell, but kept so the call shape is stable.

    Returns:
        A 64-character SHA-256 hex digest, stable across processes and
        Python versions.
    """
    spec = simulator.spec
    payload = {
        "scheme": KEY_SCHEME_VERSION,
        "trace_generator": TRACE_GENERATOR_VERSION,
        "timing_model": TIMING_MODEL_VERSION,
        "program": str(program).upper(),
        "scale": float(scale),
        "latency": int(latency),
        "architecture": simulator.name,
        "spec": spec.to_string(),
        "machine": asdict(spec.to_config()),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
