"""Execute every Python example in the README.

The quickstart snippets are the package's front door, so they are treated
like tests: each fenced ``python`` block is extracted from ``README.md``
and executed in a fresh namespace.  (They are imperative scripts rather
than ``>>>`` transcripts, so plain execution is the doctest equivalent —
a snippet that raises fails the build, which is the property that matters:
documented examples cannot rot.)

Each block runs hermetically: stdout is swallowed.  The store examples
inherit the per-session ``REPRO_CACHE_DIR`` from ``tests/conftest.py``.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[2] / "README.md"

_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks():
    blocks = _BLOCK.findall(README.read_text())
    assert blocks, "README.md has no ```python blocks — did the fences change?"
    return blocks


@pytest.mark.parametrize(
    "block",
    _python_blocks(),
    ids=lambda block: "readme-" + block.strip().splitlines()[0][:40],
)
def test_readme_python_block_executes(block):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_mentions_every_cli_subcommand():
    """The README's CLI tour and the real parser must agree on the verbs."""
    from repro.core.cli import build_parser

    text = README.read_text()
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if hasattr(action, "choices") and action.choices
    )
    missing = [name for name in subparsers.choices if name not in text]
    assert not missing, f"README never mentions subcommands: {missing}"
