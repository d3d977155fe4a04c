"""Register availability tracking shared by every simulated machine.

Both simulators keep, per architectural register, the cycle at which its value
is fully written and — when the producer supports chaining — the cycle at
which its *first* element becomes available.  The decoupled machine adds a
third fact: which processor owns the value, because reading a value produced
on another processor costs a queue traversal.

:class:`Scoreboard` holds the three facts as plain lists indexed by
:attr:`~repro.isa.registers.Register.id`.  It has no read or write methods:
each simulator's issue loop binds the lists to locals and applies its own
read rule inline, because that rule runs once per operand of every traced
instruction.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.isa.registers import REGISTER_COUNT


class Scoreboard:
    """Ready/chain-start/owner lists for the architectural register file.

    Attributes:
        ready: cycle at which each register's value is fully written (0 for
            registers never written: machine state at cycle 0).
        chain_start: cycle at which the first element is available to a
            chaining consumer, or ``None`` when the producer is not chainable.
        owner: who produced each value; ``None`` for registers never
            written (and always on machines without the concept, e.g. the
            reference architecture).
    """

    __slots__ = ("ready", "chain_start", "owner")

    def __init__(self) -> None:
        self.ready: List[int] = [0] * REGISTER_COUNT
        self.chain_start: List[Optional[int]] = [None] * REGISTER_COUNT
        self.owner: List[Optional[Hashable]] = [None] * REGISTER_COUNT

    def relative(self, origin: int, floor: int) -> List[Optional[tuple]]:
        """Each register's facts relative to ``origin`` (a fast-forward fingerprint).

        Every read of a register starts no earlier than ``floor``, and a
        chain start never follows its value's ready cycle, so a register
        ready before ``floor`` can win no future read: it reads as ``None``.
        """
        return [
            None
            if ready < floor
            else (ready - origin, None if chain is None else chain - origin, owner)
            for ready, chain, owner in zip(self.ready, self.chain_start, self.owner)
        ]

    def shift(self, cycles: int) -> None:
        """Move every ready and chain-start cycle ``cycles`` later."""
        self.ready[:] = [ready + cycles for ready in self.ready]
        self.chain_start[:] = [
            None if chain is None else chain + cycles for chain in self.chain_start
        ]
