"""Static program representation: basic blocks and programs.

Dixie, the tracing tool the paper uses, decomposes executables into basic
blocks and records the dynamic basic-block sequence.  Our static
:class:`Program` plays the role of the decomposed executable: the trace
generator in :mod:`repro.trace` walks its blocks according to an execution
plan to produce the dynamic instruction trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

from repro.common.errors import ConfigurationError
from repro.isa.instruction import Instruction


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions with a unique label."""

    label: str
    instructions: List[Instruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.label:
            raise ConfigurationError("basic block requires a non-empty label")

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        self.instructions.extend(instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __str__(self) -> str:
        body = "\n".join(f"  {instruction}" for instruction in self.instructions)
        return f"{self.label}:\n{body}"


@dataclass
class Program:
    """A named collection of basic blocks."""

    name: str
    blocks: List[BasicBlock] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("program requires a non-empty name")
        self._index: Dict[str, BasicBlock] = {}
        for block in self.blocks:
            self._register(block)

    def _register(self, block: BasicBlock) -> None:
        if block.label in self._index:
            raise ConfigurationError(
                f"duplicate basic block label {block.label!r} in program {self.name!r}"
            )
        self._index[block.label] = block

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Add a block to the program and return it."""
        self._register(block)
        self.blocks.append(block)
        return block

    def new_block(self, label: str) -> BasicBlock:
        """Create, register and return an empty block with the given label."""
        return self.add_block(BasicBlock(label))

    def block(self, label: str) -> BasicBlock:
        """Look up a block by label."""
        try:
            return self._index[label]
        except KeyError as exc:
            raise ConfigurationError(
                f"program {self.name!r} has no basic block labelled {label!r}"
            ) from exc

    def has_block(self, label: str) -> bool:
        return label in self._index

    @property
    def block_labels(self) -> list[str]:
        return [block.label for block in self.blocks]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "\n\n".join(str(block) for block in self.blocks)
