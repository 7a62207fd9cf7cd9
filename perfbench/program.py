"""Locate the program under test: the `src/d2t_selftrain` package of the
checkout this benchmark directory sits in, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no d2t_selftrain sources."""


def load() -> None:
    """Put the checkout's sources first on sys.path and import the package."""
    if not (SRC / "d2t_selftrain" / "__init__.py").is_file():
        raise ProgramMissing(f"no d2t_selftrain package under {SRC}")
    sys.path.insert(0, str(SRC))
    import d2t_selftrain

    if Path(d2t_selftrain.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"d2t_selftrain was imported from {d2t_selftrain.__file__}, not {SRC}")
