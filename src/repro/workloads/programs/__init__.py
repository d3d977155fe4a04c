"""Synthetic models of the six Perfect Club programs the paper evaluates.

Each module exposes a single ``build()`` function returning a
:class:`~repro.workloads.program_model.ProgramModel` whose aggregate behaviour
(vectorization percentage, average vector length, spill traffic, memory- vs
compute-boundness, loop-carried dependences) approximates what the paper
reports for the real program.  The published numbers each model aims at are
its :class:`~repro.workloads.program_model.ProgramTargets`;
``docs/paper-map.md`` maps the paper's sections and figures to the code that
reproduces them.
"""

from repro.workloads.programs import arc2d, bdna, dyfesm, flo52, spec77, trfd

__all__ = ["arc2d", "bdna", "dyfesm", "flo52", "spec77", "trfd"]
