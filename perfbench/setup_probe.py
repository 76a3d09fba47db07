"""One workload set-up in a fresh interpreter: import the library, build its objects, print the seconds.

    python3 perfbench/setup_probe.py INPUTS.pickle

INPUTS is a pickle of ``{"modules": [...], "raw": [...]}`` (modules to import
besides ``belldecomp``, and the raw inputs of each instance) holding plain Python
data only (lists of complex numbers, strings), so when the clock starts nothing
but the standard library is loaded: the time covers numpy's import too, as a
user's first call pays it.  ``run.py`` starts this script several times per run
and reports the median as ``setup_s``.  Run it from the root of a source
checkout with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import importlib
import pickle
import sys
import time


def build_instance(bd, raw: dict):
    return bd.TeleportationInstance(
        bd.StateVector(len(raw["pairs"]), raw["state"]),
        bd.Channel(tuple(bd.EntangledPair(y) for y in raw["pairs"])),
        bd.PairingConvention(raw["convention"]),
    )


def set_up(modules, raw):
    """Import ``belldecomp`` and then ``modules``, and build one instance per raw input."""
    bd = importlib.import_module("belldecomp")
    for name in modules:
        importlib.import_module(name)
    return bd, [build_instance(bd, r) for r in raw]


def main(path: str) -> int:
    with open(path, "rb") as f:
        spec = pickle.load(f)
    t0 = time.perf_counter()
    set_up(spec["modules"], spec["raw"])
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
