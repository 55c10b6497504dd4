"""Spans around calls into the library's modules, kept in memory.

The tracer wraps every public function of each layer module, and the public
methods (plus ``__init__``) of each public class defined there, then rebinds
the wrapped function in every module of the package that holds the same
object, so a call through ``from .symmat import load_symmat`` is traced as
well as one through ``symmat.load_symmat``.  Properties are left alone: they
are attribute reads, not calls into a layer.

A span is (name, start, end, parent).  The benchmark opens a root span per
operation (``bench.setup`` or ``bench.solve``); a layer's self time is its
spans' time minus the time of their direct children, so the self times of
all layers plus the benchmark's own glue add up to the root's duration.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("instances", "symmat", "sphere", "stiefel", "solver", "analysis", "cli")
PACKAGE = "lowranksdp"


class Tracer:
    """Span recorder; create one, ``install()`` it, ``uninstall()`` when done."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extra: dict[int, object] = {}
        self.dot_cost: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0, 0.0])
        self.nnz: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span named ``name``; ``hook(tracer, idx, args, kwargs, result)``."""
        tracer = self
        nid = self._intern(name)
        stack, name_id, parent, start, end = (self._stack, self.name_id, self.parent,
                                              self.start, self.end)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of every layer module (see module docstring)."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{name}", obj, _HOOKS.get(f"{layer}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapped = replaced.get(id(obj))
                if wrapped is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if not inspect.isfunction(val) or (attr.startswith("_") and attr != "__init__"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            self._restore.append((cls, attr, val))
            setattr(cls, attr, self.wrap(name, val, _HOOKS.get(name)))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def save(self, path) -> None:
        """Write the spans as compressed numpy arrays (names, name_id, start, end, parent)."""
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_id),
                            start=np.array(self.start), end=np.array(self.end),
                            parent=np.array(self.parent))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self.idx

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


# -- hooks: counts recorded at the same boundaries as the spans ----------------------


def _dot_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    A, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    width = 1 if getattr(x, "ndim", 1) == 1 else x.shape[1]
    n = A.n
    nnz = n * n if not A.is_sparse else (tracer.nnz if tracer.nnz is not None else n * n)
    # dense: 8 bytes per entry; CSR: 8-byte value + 4-byte column index per
    # entry plus 4-byte row pointers; every product also reads X and writes Y
    matrix_bytes = 8 * nnz if not A.is_sparse else 12 * nnz + 4 * (n + 1)
    # the span is already closed, so the bottom of the stack is its root
    cost = tracer.dot_cost[tracer._stack[0] if tracer._stack else idx]
    cost[0] += width
    cost[1] += 2.0 * nnz * width
    cost[2] += matrix_bytes + 16.0 * n * width


def _solve_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    opts = args[1] if len(args) > 1 else kwargs["opts"]
    tracer.extra[idx] = (opts.max_power_iters, result.iterations)


def _power_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    tracer.extra[idx] = int(args[2] if len(args) > 2 else kwargs["N_H"])


def _pga_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    tracer.extra[idx] = result.gradient_steps


def _cli_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    argv = args[0] if args else kwargs.get("argv")
    tracer.extra[idx] = argv[0] if argv else ""


_HOOKS = {
    "symmat.SymmetricMatrix.dot": _dot_hook,
    "solver.solve": _solve_hook,
    "solver.power_method": _power_hook,
    "solver.projected_gradient_ascent": _pga_hook,
    "cli.main": _cli_hook,
}

_HESSIAN = {
    "sphere": ("sphere.HessianOperator.apply", "sphere.HessianOperator.apply_rows",
               "sphere.hessian_apply"),
    "stiefel": ("stiefel.OcHessianOperator.apply", "stiefel.OcHessianOperator.apply_rows"),
}


# -- per-layer metrics -----------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-operation means of the per-layer metrics over the traced roots.

    Spans under ``bench.solve`` roots feed the solve-side metrics and the
    self times; spans under ``bench.setup`` roots feed the set-up metrics.
    """
    names = tracer.names
    nid, start, end, parent = tracer.name_id, tracer.start, tracer.end, tracer.parent
    count = len(start)
    root = array("i", [0]) * count
    child_time = array("d", [0.0]) * count
    for i in range(count):
        p = parent[i]
        root[i] = i if p < 0 else root[p]
        if p >= 0:
            child_time[p] += end[i] - start[i]

    solve_roots = {i for i in range(count) if parent[i] < 0 and names[nid[i]] == "bench.solve"}
    setup_roots = {i for i in range(count) if parent[i] < 0 and names[nid[i]] == "bench.setup"}

    # totals over all operations; divided by the number of operations at the end
    setup: dict[str, float] = defaultdict(float)
    tot: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        tot[f"{layer}.self_s"] = 0.0
    hess_names = {name: layer for layer, group in _HESSIAN.items() for name in group}
    for i in range(count):
        name = names[nid[i]]
        dur = end[i] - start[i]
        parent_name = names[nid[parent[i]]] if parent[i] >= 0 else ""
        if root[i] in setup_roots:
            if name.startswith("instances.") and not parent_name.startswith("instances."):
                setup["instances.generate_s"] += dur
            elif name == "symmat.save_symmat":
                setup["symmat.save_s"] += dur
            elif name == "cli.main" and tracer.extra.get(i) == "gen":
                setup["cli.gen_s"] += dur
            continue
        if root[i] not in solve_roots:
            continue
        self_time = dur - child_time[i]
        tot[name.split(".", 1)[0] + ".self_s"] += self_time
        tot["trace.spans"] += 1
        if name == "bench.solve":
            tot["trace.solve_s"] += dur
        elif name == "symmat.load_symmat":
            tot["symmat.load_s"] += dur
        elif name == "symmat.SymmetricMatrix.dot":
            tot["symmat.dot_calls"] += 1
            tot["symmat.dot_s"] += dur
        elif name == "symmat.opnorm_estimate":
            tot["symmat.opnorm_s"] += dur
        elif name == "sphere.HessianOperator.__init__":
            tot["sphere.evaluate_calls"] += 1
        elif name == "sphere.retract":
            tot["sphere.retract_calls"] += 1
            tot["sphere.retract_s"] += dur
        elif name == "stiefel.oc_retract":
            tot["stiefel.retract_calls"] += 1
            tot["stiefel.retract_s"] += dur
        elif name == "solver.projected_gradient_ascent":
            tot["solver.pga_iters"] += tracer.extra.get(i, 0)
            tot["solver.pga_s"] += dur
        elif name == "solver.solve":
            tot["solver.steps"] += tracer.extra.get(i, (None, 0))[1]
            tot["solver.steps_s"] += self_time
        elif name == "solver.power_method":
            n_h = tracer.extra.get(i, 0)
            tot["solver.power_calls"] += 1
            tot["solver.power_iters"] += n_h
            tot["solver.power_s"] += dur
            cap = _enclosing_cap(tracer, i)
            if cap is not None and n_h >= cap:
                tot["solver.power_capped_calls"] += 1
        elif name == "analysis.estimate_sdp":
            tot["analysis.estimate_s"] += dur
        elif name == "analysis.gw_round":
            tot["analysis.gw_round_s"] += dur
        elif name == "cli.main" and tracer.extra.get(i) == "solve":
            tot["cli.solve_s"] += dur
        if name in hess_names and parent_name not in hess_names:
            tot[f"{hess_names[name]}.hessian_apply_calls"] += 1
            tot[f"{hess_names[name]}.hessian_apply_s"] += dur

    cost = [sum(tracer.dot_cost[r][j] for r in solve_roots if r in tracer.dot_cost)
            for j in range(3)]
    tot["symmat.dot_cols"] = cost[0]
    dot_s = tot["symmat.dot_s"]
    metrics = {key: value / max(len(solve_roots), 1) for key, value in tot.items()}
    metrics.update({key: value / max(len(setup_roots), 1) for key, value in setup.items()})
    metrics["symmat.dot_gflops"] = cost[1] / dot_s / 1e9 if dot_s > 0 else 0.0
    metrics["symmat.dot_gbps"] = cost[2] / dot_s / 1e9 if dot_s > 0 else 0.0
    return metrics


def _enclosing_cap(tracer: Tracer, idx: int):
    p = tracer.parent[idx]
    while p >= 0:
        if tracer.names[tracer.name_id[p]] == "solver.solve":
            return tracer.extra.get(p, (None, 0))[0]
        p = tracer.parent[p]
    return None
