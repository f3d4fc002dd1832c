"""Locate the checkout the benchmark runs in and import movebar from its src/.

The benchmark always measures the source tree next to it, never an installed
copy, so every entry script calls ``use_checkout_src`` before importing
movebar.
"""
from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
# clichild.py ends its stderr with "<tag> <peak RSS in kB>"
PEAK_RSS_TAG = "perfbench-peak-rss-kb"


def use_checkout_src():
    """Put the checkout's src/ first on sys.path and import movebar from it.

    Exits with status 2 (and no result line) when the checkout holds no
    movebar sources, or when the import resolves somewhere else.
    """
    if not os.path.isfile(os.path.join(SRC, "movebar", "__init__.py")):
        sys.exit(f"perfbench: no movebar sources under {SRC}")
    if not os.path.isdir(FIXTURES):
        sys.exit(f"perfbench: no fixtures directory at {FIXTURES}")
    sys.path.insert(0, SRC)
    import movebar
    if not os.path.abspath(movebar.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: movebar imported from {movebar.__file__}, "
                 f"not from {SRC}")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ on the path."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env
