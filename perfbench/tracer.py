"""Spans around calls into each layer's public functions, recorded from
outside the package.

``install`` swaps every binding of a traced function, in every loaded
``cellnash`` module, for a wrapper; ``uninstall`` puts the originals back.
Spans nest through a stack of child-time accumulators, so a span's self
time is its duration minus the time its child spans cover.  Only totals
per span name (and call counts per name and per calling module) are kept.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# layer -> public functions wrapped in that layer.  ``scalars`` and
# ``errors`` are cross-cutting and get no layer.
TARGETS = {
    "cli": ("run_cli",),
    "gamefile": ("parse_game", "report_json"),
    "search": ("solve", "representative", "classify_cell"),
    "labeling": ("root_label",),
    "subdivision": ("player_triangulations", "triangulate", "build_product_cell", "cell_diameter"),
    "game": ("gain_table", "is_equilibrium"),
    "oracle": ("grid_min_regret", "support_enumeration_2p"),
    "linalg": ("solve_affine", "determinant"),
    "volume": ("total_volume_polynomial", "moved_cell_volume"),
}


class Tracer:
    def __init__(self, package: str = "cellnash"):
        self.package = package
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.site_calls: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def _wrap(self, name, fn, site):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        site_calls = self.site_calls
        key = (name, site)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                site_calls[key] += 1
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        by_name = {mod.__name__: mod for mod in modules}
        for layer, names in TARGETS.items():
            home = by_name[f"{self.package}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                span = f"{layer}.{fname}"
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, self._wrap(span, original, mod.__name__))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def span(self, name, fn, *args):
        """Run ``fn(*args)`` as a span of the benchmark's own."""
        return self._wrap(name, fn, "bench")(*args)

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.site_calls.clear()
