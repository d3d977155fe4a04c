"""Content-addressed cache keys for simulation results.

A sweep cell is fully determined by its inputs: the program model and trace
scale (which fix the dynamic instruction stream), the memory latency, and the
resolved machine the cell runs on.  :func:`cell_key` hashes exactly that
description — nothing less, nothing more — so two cells share a key if and
only if the simulators would produce identical results:

* the resolved :class:`~repro.core.machine.MachineSpec` — every field,
  defaults included, because the simulators read their whole machine off
  the spec and its short string form leaves default fields out (editing a
  :data:`~repro.core.machine.FIELDS` default must change the key); what no
  field covers is a fixed constant guarded by the timing-model version below;
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

import dataclasses
import hashlib
import json
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
#: v4: the ``machine`` entry is the resolved spec (every field, defaults
#: included) instead of the configuration block built from it; every v3 key
#: changes.
#: v5: the ``sdq`` field is gone, so the hashed ``machine`` dict has one
#: entry fewer; every v4 key changes.
KEY_SCHEME_VERSION = 5


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
            and its ``spec`` (string form and every resolved field) are hashed.
        config: the cell's run configuration; unused, since ``latency`` and
            the spec describe the cell, but kept so the call shape is stable.

    Returns:
        A 64-character SHA-256 hex digest, stable across processes and
        Python versions.
    """
    payload = {
        "scheme": KEY_SCHEME_VERSION,
        "trace_generator": TRACE_GENERATOR_VERSION,
        "timing_model": TIMING_MODEL_VERSION,
        "program": str(program).upper(),
        "scale": float(scale),
        "latency": int(latency),
        "architecture": simulator.name,
        "spec": simulator.spec.to_string(),
        "machine": dataclasses.asdict(simulator.spec),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
