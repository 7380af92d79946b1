#!/usr/bin/env python3
"""Regenerate recorded fixtures (the preSign transcript).

Run from the repository root after changing prompt templates or the preSign
fixture contracts:

    python tools/regen_fixtures.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from presign_fixture import write_transcript  # noqa: E402


def main() -> None:
    target = write_transcript()
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
