"""Script entry named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py``.

Puts the checkout's root and ``src/`` on ``sys.path`` so the command
needs no ``PYTHONPATH``, then hands over to :mod:`benchmarks.e2e.cli`.
In a directory without the product's source it exits 2 without a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no product source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    # Replace the script's own directory: its modules are imported as
    # ``benchmarks.e2e.*`` and must not shadow top-level names.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.cli import main

    sys.exit(main())
