"""Out-of-program tracing for the benchmark's traced runs.

``install`` wraps hammcert's public layer functions from outside; no program
code changes.  Because the package binds names with ``from .x import y``, a
function is replaced at every module attribute that holds it (each import
site), found by identity.  Spans (name, start, end, parent, run id) are kept
in memory in flat arrays and written out once, by ``Tracer.dump``, when the
traced process ends.  ``layer_metrics`` turns a dumped span file into the
per-layer metrics named in BENCHMARK.json.

Importing this module does not import hammcert, so the benchmark runner can
use ``layer_metrics`` without loading the program.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

# module names scanned for import sites, relative to the hammcert package
MODULES = ("", ".bounds", ".certify", ".cli", ".cone", ".constants", ".expr",
           ".kernels", ".problem", ".quad", ".solver")


class Tracer:
    """Span and counter store of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name: str, fn, after=None, before=None):
        """Wrap ``fn`` so that each call records one span.  ``before(args,
        kwargs)`` may return replacement arguments; ``after(result, args,
        kwargs)`` updates counters from the call."""
        nid = self.name_id(name)
        stack, names, parents = self.stack, self.name, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def dump(self, path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "names": self.names,
                                 "counts": dict(self.counts)}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]}]\n")
        return len(self.start)


def _replace(modules, orig, wrapper) -> int:
    sites = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                sites += 1
    if not sites:
        raise RuntimeError(f"no import site holds {orig!r}")
    return sites


def install(tr: Tracer) -> None:
    """Wrap every traced layer function of the imported hammcert package."""
    import importlib

    import numpy as np

    mods = [importlib.import_module("hammcert" + m) for m in MODULES]
    pkg = {m.__name__.rpartition(".")[2]: m for m in mods}
    counts = tr.counts

    def wrap(module, attr, name, **hooks):
        orig = getattr(pkg[module], attr)
        _replace(mods, orig, tr.spanned(name, orig, **hooks))

    def count(key, size_of=None):
        if size_of is None:
            def after(result, args, kwargs):
                counts[key] += 1
        else:
            def after(result, args, kwargs):
                counts[key] += 1
                counts[key.replace(".calls", ".points")] += size_of(result, args)
        return after

    # constants
    wrap("constants", "assemble_cone_constants", "constants.assemble")
    wrap("constants", "c_tilde", "constants.c_tilde")
    wrap("constants", "recip_M", "constants.recip_M")
    wrap("constants", "gamma_c", "constants.gamma_c")
    orig_recip_m = pkg["constants"].recip_m
    recip_m = {order: tr.spanned(f"constants.recip_m{order}", orig_recip_m)
               for order in (0, 1)}

    def recip_m_by_order(kd, order, *args, **kwargs):
        return recip_m[order](kd, order, *args, **kwargs)

    _replace(mods, orig_recip_m, recip_m_by_order)
    orig_ext = pkg["constants"].extremum_1d

    def extremum_1d(*args, **kwargs):
        counts["constants.extremum_1d.calls"] += 1
        return orig_ext(*args, **kwargs)

    _replace(mods, orig_ext, extremum_1d)

    # quad: the integrand is wrapped to count evaluation points
    def count_integrand(args, kwargs):
        f = args[0]

        def counted(x):
            counts["quad.integrate.points"] += np.size(x)
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    wrap("quad", "integrate", "quad.integrate", before=count_integrand,
         after=count("quad.integrate.calls"))

    # kernels
    def grid_size(result, args):
        return np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size

    wrap("kernels", "eval_k", "kernels.eval_k",
         after=count("kernels.eval_k.calls", grid_size))
    wrap("kernels", "eval_dk", "kernels.eval_dk",
         after=count("kernels.eval_dk.calls", grid_size))

    # expr: eval_scalar recurses through its own module global, so while an
    # outermost call runs the global points back at the original and the
    # recursion bypasses the wrapper; only outermost calls are recorded
    expr_mod = pkg["expr"]
    orig_eval = expr_mod.eval_scalar

    def unwrapped_recursion(e, env):
        expr_mod.eval_scalar = orig_eval
        try:
            return orig_eval(e, env)
        finally:
            expr_mod.eval_scalar = eval_scalar

    eval_scalar = tr.spanned("expr.eval_scalar", unwrapped_recursion,
                             after=count("expr.eval_scalar.calls",
                                         lambda r, a: np.size(r)))
    _replace(mods, orig_eval, eval_scalar)
    wrap("expr", "eval_functional", "expr.eval_functional",
         after=count("expr.eval_functional.calls"))

    # cone: Hermite interpolation is DiscreteState.value and .derivative
    state_cls = pkg["cone"].DiscreteState
    hermite_after = count("cone.hermite.calls", lambda r, a: np.size(a[2]))
    for method in ("value", "derivative"):
        setattr(state_cls, method, tr.spanned(
            "cone.hermite", getattr(state_cls, method), after=hermite_after))
    wrap("cone", "sample_cone_boundary_rng", "cone.sample")
    wrap("cone", "c1_norm", "cone.c1_norm")
    wrap("cone", "cone_membership", "cone.membership")

    # bounds
    def falsify_after(result, args, kwargs):
        counts["bounds.samples"] += result.samples
        counts["bounds.violations"] += len(result.violations)

    wrap("bounds", "falsify_bounds", "bounds.falsify", after=falsify_after)

    # solver
    wrap("solver", "apply_T", "solver.apply_T", after=count("solver.apply_T.calls"))

    def solve_after(result, args, kwargs):
        counts["solver.picard_iterations"] += result.iterations

    wrap("solver", "solve_fixed_point", "solver.solve", after=solve_after)

    # certify
    wrap("certify", "existence_certificate", "certify.existence",
         after=count("certify.existence.calls"))
    wrap("certify", "nonexistence_certificate", "certify.nonexistence",
         after=count("certify.nonexistence.calls"))
    wrap("certify", "sweep", "certify.sweep")

    # problem and cli
    wrap("problem", "load_config", "problem.load_config")
    wrap("cli", "main", "cli.main")


# ---------------------------------------------------------------------------
# Span analysis (runner side)

BUSY = ("constants.assemble", "constants.c_tilde", "constants.recip_m0",
        "constants.recip_m1", "constants.recip_M", "constants.gamma_c",
        "cone.hermite", "cone.sample", "cone.c1_norm", "cone.membership",
        "certify.existence", "certify.nonexistence", "problem.load_config")
SELF = ("quad.integrate", "expr.eval_scalar", "expr.eval_functional",
        "bounds.falsify", "solver.apply_T", "solver.solve", "certify.sweep",
        "cli.main")
COUNTS = ("constants.extremum_1d.calls", "quad.integrate.calls",
          "quad.integrate.points", "kernels.eval_k.points",
          "kernels.eval_dk.points", "expr.eval_scalar.calls",
          "expr.eval_scalar.points", "expr.eval_functional.calls",
          "cone.hermite.calls", "cone.hermite.points", "bounds.samples",
          "bounds.violations", "solver.apply_T.calls",
          "solver.picard_iterations", "certify.existence.calls",
          "certify.nonexistence.calls")


def read_spans(path):
    """Load a span file written by ``Tracer.dump``."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    return head, rows


def layer_metrics(head: dict, rows: list) -> dict:
    """Per-layer metrics of one traced process.

    busy_s of a name is the summed duration of its spans that are not nested
    in a span of the same name.  self_s is a span's duration minus the time
    its child spans cover; the process is single-threaded, so the children
    of one span never overlap and their durations add up.
    """
    names = head["names"]
    n = len(rows)
    dur = [end - start for _, start, end, _ in rows]
    child_time = [0.0] * n
    busy = Counter()
    self_s = Counter()
    for i, (nid, _, _, parent) in enumerate(rows):
        if parent >= 0:
            child_time[parent] += dur[i]
    for i, (nid, _, _, parent) in enumerate(rows):
        name = names[nid]
        if parent < 0 or rows[parent][0] != nid:
            busy[name] += dur[i]
        self_s[name] += dur[i] - child_time[i]
    first_apply = next((dur[i] for i, row in enumerate(rows)
                        if names[row[0]] == "solver.apply_T"), 0.0)
    counts = head["counts"]
    out = {f"{name}.busy_s": busy[name] for name in BUSY}
    out.update({f"{name}.self_s": self_s[name] for name in SELF})
    out["kernels.eval.self_s"] = self_s["kernels.eval_k"] + self_s["kernels.eval_dk"]
    out["solver.apply_T.first_s"] = first_apply
    out.update({key: counts.get(key, 0) for key in COUNTS})
    calls = counts.get("quad.integrate.calls", 0)
    out["quad.points_per_integral"] = (
        counts.get("quad.integrate.points", 0) / calls if calls else 0.0)
    out["trace.spans"] = n
    return out
