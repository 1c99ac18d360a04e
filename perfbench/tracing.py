"""Span tracing of the slly layers from outside the package.

The tracer replaces public module attributes (``piecewise.build``,
``susy.apply_q``, ``lattice.build_sector_matrix``, ...) with timing wrappers
at run time.  Calls inside the package go through module globals
(``pw.build``, ``jump_residual`` calling ``continuity_residual``), so nested
calls are captured and each span knows its parent.  The factorisation and
the shift-invert solves of the sparse eigensolver are split out by wrapping
``splu`` and ``SpLuInv._matvec`` in scipy's ARPACK module.

Spans (name, start, end, parent, task) are kept in compact arrays and written
out at exit.  Self time is a span's duration minus the time its child spans
cover.  Per-pass totals and work counters are accumulated as calls happen.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import statistics
import time
from array import array
from collections import defaultdict
from collections.abc import Sized

from workloads import COMMAND_KINDS

ARPACK_MODULE = "scipy.sparse.linalg._eigen.arpack.arpack"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.stack: list[list] = []  # [span index, name, child seconds]
        self.task = -1
        self._undo: list[tuple[object, str, object]] = []
        self.new_pass()

    # -- per-pass accumulators ------------------------------------------------

    def new_pass(self) -> None:
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.jump_by_n = defaultdict(lambda: [0.0, 0])
        self.sectors_seen: set = set()
        self.walls_checked: dict = {}

    def new_task(self, task: int) -> None:
        """Start attributing spans to ``task``; closes the previous task's wall tally."""
        self.count["piecewise.continuity_residual.distinct"] += len(self.walls_checked)
        # (id(input), wall) -> input; holding the input keeps its id unique for the task
        self.walls_checked = {}
        self.task = task

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args)`` may return replacement args; ``after(args, result,
        seconds)`` records work counters.  A call made directly inside a span
        of the same name (recursion) is not recorded again.  Hook and
        bookkeeping time is left out of every span's self time.
        """
        fn = getattr(owner, attr)
        name_id = self._name_id(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            h0 = clock()
            try:
                if before is not None:
                    args = before(args)
                index = len(self.span_name)
                self.span_name.append(name_id)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_task.append(self.task)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                frame = [index, name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    self.span_start[index] = t0
                    self.span_end[index] = t1
                    self.incl[name] += t1 - t0
                    self.self_s[name] += t1 - t0 - frame[2]
                    self.calls[name] += 1
                if after is not None:
                    after(args, result, t1 - t0)
                return result
            finally:
                # the parent's self time excludes this call and its bookkeeping
                if stack:
                    stack[-1][2] += clock() - h0

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def remove(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as gzipped JSON columns; returns the span count."""
        payload = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "task"],
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "task": self.span_task.tolist(),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
        return len(self.span_start)


def install(tracer: Tracer, slly) -> None:
    """Wrap the public functions of every layer.  ``slly`` maps module names to modules."""
    pw, bethe, susy, fock, lattice, cli = (
        slly[m] for m in ("piecewise", "bethe", "susy", "fock", "lattice", "cli")
    )

    def build_in(args):
        n, data = args
        if not all(isinstance(raw, Sized) for raw in data.values()):
            data = {r: list(raw) for r, raw in data.items()}
        tracer.count["piecewise.build.terms_in"] += sum(len(raw) for raw in data.values())
        return n, data

    def build_out(args, result, seconds):
        tracer.count["piecewise.build.terms_out"] += sum(len(ts) for ts in result.terms.values())

    def continuity(args, result, seconds):
        f, iface = args
        tracer.walls_checked[(id(f), iface)] = f

    def jump(args, result, seconds):
        funcs, iface = args[0], args[1]
        local = sum(len(f.region_terms(iface.left)) + len(f.region_terms(iface.right)) for f in funcs)
        touched = sum(len(ts) for f in funcs for ts in f.terms.values())
        tracer.count["piecewise.jump_residual.local_terms"] += local
        tracer.count["piecewise.jump_residual.touched_terms"] += touched
        per_n = tracer.jump_by_n[funcs[0].n]
        per_n[0] += seconds
        per_n[1] += 1

    def coefficients(args, result, seconds):
        tracer.count["bethe.bethe_coefficients.permutations"] += len(result.alpha)

    def matching(args, result, seconds):
        n = args[0].n
        tracer.count["bethe.matching_report.walls"] += math.factorial(n) * (n - 1) // 2

    def sector(args, result, seconds):
        key = (args[0], args[1])
        if key in tracer.sectors_seen:
            tracer.count["susy.sector_hamiltonian.reused"] += 1
        tracer.sectors_seen.add(key)

    def sector_matrix(args, result, seconds):
        tracer.count["lattice.build_sector_matrix.unknowns"] += result.shape[0]
        tracer.count["lattice.build_sector_matrix.nnz"] += result.nnz

    def factorize(args, result, seconds):
        tracer.count["lattice.factor_fill_nnz"] += result.nnz

    tracer.wrap(pw, "build", "piecewise.build", build_in, build_out)
    tracer.wrap(pw, "restrict_to_interface", "piecewise.restrict_to_interface")
    tracer.wrap(pw, "continuity_residual", "piecewise.continuity_residual", after=continuity)
    tracer.wrap(pw, "jump_residual", "piecewise.jump_residual", after=jump)
    for name in ("differentiate", "add", "scale"):
        tracer.wrap(pw, name, f"piecewise.{name}")

    tracer.wrap(bethe, "bethe_coefficients", "bethe.bethe_coefficients", after=coefficients)
    tracer.wrap(bethe, "bethe_sum", "bethe.bethe_sum")
    tracer.wrap(bethe, "matching_report", "bethe.matching_report", after=matching)

    tracer.wrap(susy, "apply_q", "susy.apply_q")
    tracer.wrap(susy, "apply_q_dagger", "susy.apply_q")
    tracer.wrap(susy, "verify_eigenstate", "susy.verify_eigenstate")
    tracer.wrap(susy, "sector_hamiltonian", "susy.sector_hamiltonian", after=sector)
    tracer.wrap(susy, "random_spinor", "susy.random_spinor")

    tracer.wrap(fock, "delta_coupling", "fock.delta_coupling")
    tracer.wrap(fock, "grade_project", "fock.grade_project")

    arpack = importlib.import_module(ARPACK_MODULE)
    tracer.wrap(lattice, "build_sector_matrix", "lattice.build_sector_matrix", after=sector_matrix)
    tracer.wrap(lattice, "lowest_eigenvalues", "lattice.lowest_eigenvalues")
    tracer.wrap(lattice, "lattice_q_diagnostic", "lattice.lattice_q_diagnostic")
    tracer.wrap(lattice.spla, "eigsh", "lattice.eigsh")
    tracer.wrap(arpack, "splu", "lattice.factorize", after=factorize)
    tracer.wrap(arpack.SpLuInv, "_matvec", "lattice.solve")

    tracer.wrap(cli, "render_json", "cli.render_json")
    tracer.wrap(cli, "main", "cli.main")


# (name, unit, better) of every per-layer metric; each value is a per-pass total
# (or ratio) from a traced pass, and the run reports the median over its traced passes.
_SELF = ("piecewise.build", "piecewise.restrict_to_interface", "piecewise.continuity_residual",
         "piecewise.jump_residual", "piecewise.differentiate", "piecewise.add", "piecewise.scale",
         "bethe.bethe_coefficients", "bethe.bethe_sum", "susy.apply_q", "cli.main")
_INCLUSIVE = ("bethe.matching_report", "susy.verify_eigenstate", "susy.sector_hamiltonian",
              "susy.random_spinor", "fock.delta_coupling", "fock.grade_project",
              "lattice.build_sector_matrix", "lattice.lowest_eigenvalues", "lattice.factorize",
              "lattice.lattice_q_diagnostic", "cli.render_json")
_CALLS = ("piecewise.build", "piecewise.restrict_to_interface", "piecewise.continuity_residual",
          "piecewise.jump_residual", "susy.apply_q", "susy.verify_eigenstate",
          "susy.sector_hamiltonian", "fock.delta_coupling", "fock.grade_project")
_COUNTS = ("piecewise.build.terms_in", "piecewise.build.terms_out",
           "bethe.bethe_coefficients.permutations", "bethe.matching_report.walls",
           "lattice.build_sector_matrix.unknowns", "lattice.build_sector_matrix.nnz",
           "lattice.factor_fill_nnz")
JUMP_SIZES = (2, 3, 4, 5)

LAYER_METRICS = (
    [(f"{n}.self_s", "s", "lower") for n in _SELF]
    + [(f"{n}.s", "s", "lower") for n in _INCLUSIVE]
    + [(f"{n}.calls", "count", "lower") for n in _CALLS]
    + [(n, "count", "lower") for n in _COUNTS]
    + [
        ("piecewise.continuity_residual.per_wall", "checks/wall", "lower"),
        ("piecewise.jump_residual.locality_ratio", "frac", "higher"),
        ("susy.sector_hamiltonian.reuse_ratio", "frac", "lower"),
        ("lattice.lanczos.s", "s", "lower"),
        ("lattice.lanczos.solves", "count", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("trace_overhead_frac", "frac", "lower"),
        ("failed_frac", "frac", "lower"),
    ]
    + [(f"piecewise.jump_residual.per_wall_ms.n{n}", "ms", "lower") for n in JUMP_SIZES]
    + [(f"cli.cmd.{kind}.s", "s", "lower") for kind in COMMAND_KINDS]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, cmd_seconds: dict, report_bytes: int) -> dict:
    """Per-layer values of the traced pass that just ended."""
    tracer.new_task(-1)
    incl, calls, count = tracer.incl, tracer.calls, tracer.count
    out = {f"{n}.self_s": tracer.self_s[n] for n in _SELF}
    out.update({f"{n}.s": incl[n] for n in _INCLUSIVE})
    out.update({f"{n}.calls": calls[n] for n in _CALLS})
    out.update({n: count[n] for n in _COUNTS})
    out["piecewise.continuity_residual.per_wall"] = _ratio(
        calls["piecewise.continuity_residual"], count["piecewise.continuity_residual.distinct"])
    out["piecewise.jump_residual.locality_ratio"] = _ratio(
        count["piecewise.jump_residual.local_terms"], count["piecewise.jump_residual.touched_terms"])
    out["susy.sector_hamiltonian.reuse_ratio"] = _ratio(
        count["susy.sector_hamiltonian.reused"], calls["susy.sector_hamiltonian"])
    out["lattice.lanczos.s"] = incl["lattice.eigsh"] - incl["lattice.factorize"]
    out["lattice.lanczos.solves"] = calls["lattice.solve"]
    out["cli.report_bytes"] = report_bytes
    for n in JUMP_SIZES:
        seconds, n_calls = tracer.jump_by_n.get(n, (0.0, 0))
        out[f"piecewise.jump_residual.per_wall_ms.n{n}"] = 1000.0 * _ratio(seconds, n_calls)
    for kind in COMMAND_KINDS:
        out[f"cli.cmd.{kind}.s"] = cmd_seconds.get(kind, 0.0)
    out["layers_with_spans"] = sorted(n for n, k in calls.items() if k)
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: statistics.median(p[name] for p in per_pass)
            for name, _, _ in LAYER_METRICS if name in per_pass[0]}
