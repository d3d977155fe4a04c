"""``repro serve`` with the perfbench tracer installed (the traced serve epoch).

Usage: ``python3 perfbench/traced_serve.py SPAN_DIR [repro serve options]``.
The server's own spans are written to ``SPAN_DIR`` when it shuts down (on
SIGINT); its pool workers write theirs after every batch.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import tracer  # noqa: E402


def main() -> int:
    active = tracer.install(Path(sys.argv[1]))
    from repro.core.cli import main as repro_main

    try:
        return repro_main(["serve", *sys.argv[2:]])
    finally:
        active.flush()


if __name__ == "__main__":
    sys.exit(main())
