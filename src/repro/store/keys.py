"""Content-addressed cache keys for simulation results.

A sweep cell is fully determined by its inputs: the program model and trace
scale (which fix the dynamic instruction stream), the memory latency, and the
resolved machine the cell runs on.  :func:`cell_key` hashes exactly that
description — nothing less, nothing more — so two cells share a key if and
only if the simulators would produce identical results:

* the canonical :class:`~repro.core.machine.MachineSpec` string *and* the
  fully-resolved per-family configuration block (a spec field left unpinned
  inherits from the :class:`~repro.core.config.RunConfig`, so the spec string
  alone would under-identify the machine);
* the architecture label, because it travels on the result as provenance and
  a cache hit must restore the result byte-for-byte, label included;
* :data:`~repro.trace.generator.TRACE_GENERATOR_VERSION`, so changing how
  traces are generated invalidates every persisted result;
* :data:`~repro.engine.TIMING_MODEL_VERSION`, so changing what the
  simulators compute for an unchanged input invalidates them too; and
* :data:`KEY_SCHEME_VERSION`, so changing *this* hashing scheme does too.

Only spec-backed simulators (:class:`~repro.core.registry.SpecArchitecture`
and anything else exposing a ``spec`` attribute holding a
:class:`~repro.core.machine.MachineSpec`) are keyable; a hand-written
simulator's behaviour is opaque code, not data, so :func:`cell_key` returns
``None`` for it and the runner simply never caches those cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Optional

from repro.core.config import RunConfig
from repro.core.machine import MachineSpec
from repro.engine import TIMING_MODEL_VERSION
from repro.trace.generator import TRACE_GENERATOR_VERSION

#: Version of the key derivation itself.  Bump when the payload layout or the
#: hashing below changes, so old store entries can never be misread as hits.
#: v2: v1 keys stripped a ``core=`` pin from the label, so a v1 entry under a
#: plain ``dva`` key may carry a ``dva@core=event`` label; v2 never serves them.
KEY_SCHEME_VERSION = 2


def cell_key(
    program: str,
    scale: float,
    latency: int,
    simulator: object,
    config: RunConfig,
) -> Optional[str]:
    """The content-addressed key of one sweep cell, or ``None`` if uncacheable.

    Args:
        program: benchmark program name (case-insensitive).
        scale: trace scale factor.
        latency: memory latency in cycles.
        simulator: the resolved simulator the cell runs on; must expose a
            ``name`` label and a ``spec`` :class:`MachineSpec` to be keyable.
        config: the sweep-wide run configuration the spec resolves against.

    Returns:
        A 64-character SHA-256 hex digest, stable across processes and
        Python versions, or ``None`` when the simulator is not spec-backed.
    """
    spec = getattr(simulator, "spec", None)
    if not isinstance(spec, MachineSpec):
        return None
    if spec.family == "ref":
        machine = asdict(spec.apply_reference(config.reference))
    else:
        machine = asdict(spec.apply_decoupled(config.decoupled))
    payload = {
        "scheme": KEY_SCHEME_VERSION,
        "trace_generator": TRACE_GENERATOR_VERSION,
        "timing_model": TIMING_MODEL_VERSION,
        "program": str(program).upper(),
        "scale": float(scale),
        "latency": int(latency),
        "architecture": str(getattr(simulator, "name", spec.to_string())),
        "spec": spec.to_string(),
        "machine": machine,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
