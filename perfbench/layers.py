"""Fold a cProfile of the simulator into the layers named after ``src/repro``.

Every module under ``src/repro`` belongs to exactly one layer (the table
below; ``tests/test_layers.py`` enforces it).  A profiled function's self
time and call count go to its module's layer, with three refinements:

- Self time of functions defined outside ``src/repro`` and numpy -- C
  builtins such as ``dict.get``, ``heapq.heappush`` or ``list.append``, and
  stdlib Python code -- is charged to the layer of the function that called
  them, split by cProfile's per-caller records and followed up the call
  chain through other such functions.  What reaches no ``repro`` caller
  (the benchmark's own loop) is reported as ``unattributed``.
- numpy's Python functions and C methods are the ``numpy`` layer.
- Some numpy work runs as operators (``@``, slice assignment), which
  cProfile books as self time of the calling function.  The functions in
  :data:`NUMPY_FOLDED` exist to do that work, so they fold into ``numpy``.

Call counts are those of the layer's own Python functions (generator
resumptions count as calls); builtins charged to a layer add time only.
"""

from __future__ import annotations

import ast
import os
import pstats
from collections import defaultdict
from pathlib import Path

LAYERS = ("sim.engine", "sim.network", "sim.cluster", "sim.faults", "comm",
          "core", "baselines", "distarray", "bench", "numpy")

# Packages own every module below them; modules own only themselves.
PACKAGE_LAYER = {
    "repro.comm": "comm",
    "repro.core": "core",
    # The section 2.1 analytic efficiency model of the algorithm.
    "repro.model": "core",
    "repro.baselines": "baselines",
    "repro.distarray": "distarray",
    "repro.bench": "bench",
    # Machine models: the cost functions the simulated cluster calls.
    "repro.machines": "sim.cluster",
}
MODULE_LAYER = {
    "repro.sim.engine": "sim.engine",
    "repro.sim.network": "sim.network",
    "repro.sim.cluster": "sim.cluster",
    "repro.sim.resources": "sim.cluster",
    "repro.sim.trace": "sim.cluster",
    "repro.sim.interference": "sim.cluster",
    "repro.sim.faults": "sim.faults",
    "repro.sim.membership": "sim.faults",
    "repro.cli": "bench",
    "repro.__main__": "bench",
}

# (module, qualname) of functions whose self time is numpy operator work.
NUMPY_FOLDED = frozenset({
    ("repro.comm.base", "RankContext.dgemm"),
    ("repro.core.api", "make_operands"),
    ("repro.comm.armci", "ArmciRuntime._issue_get.<locals>.deliver"),
    ("repro.comm.armci", "ArmciRuntime._issue_put.<locals>.deliver"),
    ("repro.comm.armci", "Armci.nb_acc.<locals>.deliver"),
    ("repro.distarray.global_array", "GlobalArray.load"),
    ("repro.distarray.global_array", "GlobalArray.assemble"),
})

UNATTRIBUTED = "unattributed"
_MAX_CHAIN = 12


def matching_layers(module: str) -> list[str]:
    """Every table entry that claims ``module`` (exactly one is correct)."""
    found = [layer for pkg, layer in PACKAGE_LAYER.items()
             if module == pkg or module.startswith(pkg + ".")]
    if module in MODULE_LAYER:
        found.append(MODULE_LAYER[module])
    return found


def iter_functions(src: Path):
    """Yield ``(path, module, qualname, lines)`` for every function defined
    under ``src/repro``; ``lines`` holds the ``def`` line and, for a
    decorated function, the first decorator's line (cProfile reports
    whichever ``co_firstlineno`` the interpreter chose)."""
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts.pop()
        module = ".".join(parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        yield from _walk(tree, path, module, [])


def _walk(node, path, module, scope):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            name = getattr(child, "name", "<lambda>")
            qual = ".".join(scope + [name])
            lines = {child.lineno}
            for deco in getattr(child, "decorator_list", ()):
                lines.add(deco.lineno)
            yield path, module, qual, lines
            yield from _walk(child, path, module, scope + [name, "<locals>"])
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, path, module, scope + [child.name])
        else:
            yield from _walk(child, path, module, scope)


class LayerMap:
    """Maps cProfile function keys ``(file, line, name)`` to layers."""

    def __init__(self, src: Path):
        self._by_site: dict[tuple[str, int], str] = {}
        for path, module, qual, lines in iter_functions(src):
            (layer,) = matching_layers(module)
            if (module, qual) in NUMPY_FOLDED:
                layer = "numpy"
            for line in lines:
                self._by_site[(os.path.realpath(path), line)] = layer
        self._src = os.path.realpath(src / "repro") + os.sep

    def layer_of(self, func: tuple[str, int, str]) -> str | None:
        """The layer of a profiled function, or None when its time belongs
        to whoever called it."""
        filename, line, name = func
        if filename == "~":
            return "numpy" if "numpy" in name else None
        real = os.path.realpath(filename)
        if real.startswith(self._src):
            return self._by_site.get((real, line))
        if f"{os.sep}numpy{os.sep}" in real:
            return "numpy"
        return None


def fold(stats: pstats.Stats, layer_map: LayerMap) -> dict[str, float]:
    """Per-layer ``self_s``, ``share`` and ``calls`` of one profile, plus the
    ``unattributed`` remainder."""
    table = stats.stats  # {func: (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})}
    direct = {func: layer_map.layer_of(func) for func in table}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)

    def charge(func, amount: float, depth: int) -> None:
        callers = table[func][4] if func in table else {}
        weights = {c: edge[2] for c, edge in callers.items() if edge[2] > 0}
        total = sum(weights.values())
        if total <= 0 or depth > _MAX_CHAIN:
            self_s[UNATTRIBUTED] += amount
            return
        for caller, w in weights.items():
            part = amount * w / total
            layer = direct.get(caller)
            if layer is not None:
                self_s[layer] += part
            else:
                charge(caller, part, depth + 1)

    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        layer = direct[func]
        if layer is None:
            charge(func, tt, 0)
        else:
            self_s[layer] += tt
            calls[layer] += nc

    grand = sum(self_s.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / grand if grand > 0 else 0.0
        out[f"{layer}.calls"] = calls[layer]
    out[f"{UNATTRIBUTED}.self_s"] = self_s[UNATTRIBUTED]
    out[f"{UNATTRIBUTED}.share"] = (self_s[UNATTRIBUTED] / grand
                                    if grand > 0 else 0.0)
    return out
