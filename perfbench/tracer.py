"""Per-module tracing of ``dst`` from outside the package.

The tracer replaces public functions of ``dst`` modules with timing
wrappers at run time; no file under ``src/`` changes. ``from .linalg
import vnorm`` binds the name in every importing module, so a wrapper is
installed under every module attribute that holds the original object
(``dst.kuelbs.vnorm``, ``dst.adjoint.vnorm``, ``dst.linalg.vnorm``, ...).
LAPACK calls are counted by giving each ``dst`` module a stand-in for its
``np`` global whose ``linalg`` attribute wraps the factorizations; numpy
itself is left alone, so only calls made from ``dst`` are counted.

Every wrapper accumulates calls, inclusive time and self time (inclusive
time minus the time of wrapped calls made inside it). Functions called
up to ~10^5 times per pass (``vnorm``, the validators, ``evaluate``,
``Rng.vector``, the LAPACK calls) are only aggregated under their caller;
every other call is also kept as a span (key, parent span, start, end).

The tracer assumes one thread: ``dst verify`` runs with ``--jobs 1``.
"""

from __future__ import annotations

import contextlib
import sys
import time

import numpy

# Wrapped numpy.linalg entry points, reported as linalg.lapack.<name>.
LAPACK = ("svd", "eigh", "eigvalsh", "cholesky", "inv", "solve")

COUNTERS = ("rng.entries", "spectral.atoms", "spectral.atom_bytes", "fileio.report_bytes", "suites.cases")


def _count_entries(counters, args, out):
    # Rng.matrix(self, rows, cols) and Rng.vector(self, dim) draw one
    # complex_entry per element; counting here avoids wrapping a function
    # that runs ~3e5 times per verify pass.
    n = 1
    for k in args[1:]:
        n *= int(k)
    counters["rng.entries"] += n


def _count_atoms(counters, args, out):
    counters["spectral.atoms"] += len(out.atoms)
    counters["spectral.atom_bytes"] += sum(int(p.nbytes) for _, p in out.atoms)


def _count_report(counters, args, out):
    counters["fileio.report_bytes"] += len(out.encode("utf-8"))


def _count_cases(counters, args, out):
    counters["suites.cases"] += len(out)


# (module, attribute, key, hot, hook). "Class.method" patches the class.
TARGETS = (
    ("rng", "Rng.matrix", "rng.matrix", False, _count_entries),
    ("rng", "Rng.vector", "rng.vector", True, _count_entries),
    ("ensembles", "generate", "ensembles.generate", False, None),
    ("linalg", "vnorm", "linalg.vnorm", True, None),
    ("linalg", "as_matrix", "linalg.validate", True, None),
    ("linalg", "as_vector", "linalg.validate", True, None),
    ("polar", "polar_decompose", "polar", False, None),
    ("spectral", "spectral_measure", "spectral.measure", False, _count_atoms),
    ("spectral", "deform", "spectral.deform", False, _count_atoms),
    ("spectral", "integrate", "spectral.integrate", False, None),
    ("gexpr", "parse", "gexpr.parse", False, None),
    ("gexpr", "evaluate", "gexpr.evaluate", True, None),
    ("kuelbs", "build_kuelbs", "kuelbs.build", False, None),
    ("kuelbs", "lp_operator_norm", "kuelbs.lp_norm", False, None),
    ("kuelbs", "lax_diagnostic", "kuelbs.lax", False, None),
    ("kuelbs", "steadman", "kuelbs.steadman", False, None),
    ("adjoint", "adjoint", "adjoint.adjoint", False, None),
    ("adjoint", "adjoint_axioms", "adjoint.axioms", False, None),
    ("adjoint", "h_polar", "adjoint.h_polar", False, None),
    ("adjoint", "baire_approximant", "adjoint.baire", False, None),
    ("adjoint", "baire_convergence_study", "adjoint.baire", False, None),
    ("adjoint", "intertwining_residual", "adjoint.baire", False, None),
    ("adjoint", "banach_deformed_spectral", "adjoint.banach_spectral", False, None),
    ("fileio", "digest", "fileio.digest", False, None),
    ("fileio", "dump_json", "fileio.dump", False, _count_report),
    ("fileio", "save_report", "fileio.dump", False, None),
    ("suites", "run_suite", "suites.run_suite", False, None),
)

# evaluate() recurses through its own module global; patching only the
# importing modules counts one call per evaluation of g at an atom.
NO_SELF_PATCH = {("gexpr", "evaluate")}


class _Forward:
    """Attribute stand-in: own attributes first, then the target's."""

    def __init__(self, target, **own):
        self._target = target
        self.__dict__.update(own)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Installs wrappers on an imported ``dst`` package and aggregates them."""

    def __init__(self, dst):
        self.dst = dst
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, incl_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [0.0]  # time of wrapped children, one slot per open call
        self._parents = [-1]  # open span indices
        self._spans: list[list] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, key, hot=False, hook=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, parents, spans, counters = self._stack, self._parents, self._spans, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not hot:
                sid = len(spans)
                spans.append([key, parents[-1], 0.0, 0.0])
                parents.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                stats[2] += dt
                stack[-1] += dt
                if not hot:
                    parents.pop()
                    spans[sid][2:] = [t0, t0 + dt]
            if hook is not None:
                hook(counters, args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, key):
        """A benchmark-level span (setup, pass) that parents the calls inside."""
        sid = len(self._spans)
        self._spans.append([key, self._parents[-1], time.perf_counter(), 0.0])
        self._parents.append(sid)
        try:
            yield
        finally:
            self._parents.pop()
            self._spans[sid][3] = time.perf_counter()

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def install(self) -> "Tracer":
        prefix = self.dst.__name__
        mods = [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]
        for modname, attr, key, hot, hook in TARGETS:
            home = getattr(self.dst, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self.wrap(cls.__dict__[meth], key, hot, hook))
                continue
            orig = getattr(home, attr)
            wrapper = self.wrap(orig, key, hot, hook)
            for m in mods:
                if m is home and (modname, attr) in NO_SELF_PATCH:
                    continue
                for name, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, name, wrapper)
        # run_suite dispatches through a table, not through module globals
        table = self.dst.suites._SUITE_FNS
        for name, fn in list(table.items()):
            self._undo.append((table, name, fn))
            table[name] = self.wrap(fn, f"suites.{name}", hook=_count_cases)
        lapack = {n: self.wrap(getattr(numpy.linalg, n), f"lapack.{n}", True) for n in LAPACK}
        np_stand_in = _Forward(numpy, linalg=_Forward(numpy.linalg, **lapack))
        for m in mods:
            if vars(m).get("np") is numpy:
                self._set(m, "np", np_stand_in)
        return self

    def uninstall(self) -> None:
        for obj, name, val in reversed(self._undo):
            if isinstance(obj, dict):
                obj[name] = val
            else:
                setattr(obj, name, val)
        self._undo.clear()

    def reset(self) -> None:
        for s in self.stats.values():
            s[:] = [0, 0.0, 0.0]
        for k in self.counters:
            self.counters[k] = 0
        self._spans.clear()

    def spans(self) -> list[list]:
        """[key, parent index, start, end] per non-hot call, in call order."""
        return [list(s) for s in self._spans]

    def snapshot(self) -> dict:
        return {"stats": {k: tuple(v) for k, v in self.stats.items()}, "counters": dict(self.counters)}
