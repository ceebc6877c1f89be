"""Span and counter recording around petzmi's public functions, from outside.

`Tracer.install()` replaces each traced function with a wrapper in every
module that holds a reference to it (``prmi`` imported its own
``power_on_support``, ``cli`` its own ``brute_force_dd``, and so on), patches
``numpy.linalg.eigh``/``eigvalsh`` in this process only, and wraps the
``__init__`` of the operator classes. `uninstall()` restores every original.
Nothing in the package itself is edited.

A span is (name, start, end, parent). Spans are kept in memory and written out
by `dump()` when the traced pass ends. A span's self time is its duration minus
the time covered by its child spans, so the self times of all spans add up to
the time covered by the root spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); the span name's first part is the layer
SPANNED = (
    ("petzmi.linalg", "power_on_support", "linalg.power_on_support"),
    ("petzmi.divergences", "petz_divergence", "divergences.petz_divergence"),
    ("petzmi.prmi", "prmi_up_up", "prmi.uu"),
    ("petzmi.prmi", "prmi_up_down", "prmi.ud"),
    ("petzmi.classical", "rmi_down_down", "classical.rmi_down_down"),
    ("petzmi.oracle", "brute_force_dd", "oracle.brute_force_dd"),
    ("petzmi.exponents", "alpha_derivative", "exponents.alpha_derivative"),
    ("petzmi.exponents", "rate_curve", "exponents.rate_curve"),
    ("petzmi.hypotest", "iid_block", "hypotest.iid_block"),
    ("petzmi.hypotest", "np_test", "hypotest.np_test"),
    ("petzmi.hypotest", "test_errors", "hypotest.test_errors"),
)
# wrapped for a call count only: these run so often that a span each would
# dominate the traced time
COUNTED = (("petzmi.prmi", "gen_prmi_down", "prmi.half_steps"),)

LAYERS = ("bench", "linalg", "states", "divergences", "prmi", "classical",
          "oracle", "exponents", "hypotest", "cli")


def _petzmi_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "petzmi" or name.startswith("petzmi."))]


class Tracer:
    """Records spans and counters while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list = []
        self._exponent_depth = 0
        self.t_begin = self.t_end = 0.0

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
                if after is not None:
                    after(args, kwargs)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, fn, name: str = "bench.call"):
        """Run one top-level call of the workload inside a root span."""
        return self._spanned(name, fn)()

    # -- per-function hooks ---------------------------------------------
    def _count_matrices(self, args, kwargs):
        shape = np.shape(args[0])
        batch = math.prod(shape[:-2])
        self.counts["linalg.eigh.matrices"] += batch
        self.counts[f"linalg.eigh.matrices.d{shape[-1]}"] += batch

    def _dd_wrapper(self, fn):
        counts = self.counts
        inner = self._spanned("prmi.dd", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._exponent_depth:
                counts["exponents.dd_solves"] += 1
            sol = inner(*args, **kwargs)
            counts["prmi.dd.iterations"] += sol.iterations
            counts["prmi.dd.certified"] += int(sol.certified)
            counts["prmi.dd.solutions"] += 1
            return sol

        return wrapper

    def _enter_exponent(self, args, kwargs):
        self._exponent_depth += 1

    def _leave_exponent(self, args, kwargs):
        self._exponent_depth -= 1

    def _universal_state_bytes(self, args, kwargs):
        n, d = args[0], args[1]
        # the dense symmetric projector on (C^d x C^d)^(x n), float64
        self.counts["hypotest.projector_bytes"] += 8 * (d * d) ** (2 * n)

    # -- patching --------------------------------------------------------
    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _petzmi_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import numpy.linalg as la

        import petzmi  # noqa: F401  (all modules must be loaded before patching)
        import petzmi.cli  # noqa: F401
        import petzmi.oracle  # noqa: F401
        from petzmi.linalg import HermitianOperator
        from petzmi.states import DensityOperator

        for attr in ("eigh", "eigvalsh"):
            original = getattr(la, attr)
            self._restore.append((la, attr, original))
            setattr(la, attr, self._spanned("linalg.eigh", original, before=self._count_matrices))
        for cls, attr_wrapper in (
            (HermitianOperator, lambda f: self._counted("linalg.hermitian.constructions", f)),
            (DensityOperator, lambda f: self._spanned("states.density", f)),
        ):
            original = cls.__dict__["__init__"]
            self._restore.append((cls, "__init__", original))
            cls.__init__ = attr_wrapper(original)

        for mod_name, attr, name in SPANNED:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._spanned(name, original))
        for mod_name, attr, key in COUNTED:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._counted(key, original))

        dd = sys.modules["petzmi.prmi"].prmi_down_down
        self._replace_everywhere(dd, self._dd_wrapper(dd))
        de = sys.modules["petzmi.exponents"].direct_exponent
        self._replace_everywhere(de, self._spanned(
            "exponents.direct_exponent", de,
            before=self._enter_exponent, after=self._leave_exponent))
        us = sys.modules["petzmi.hypotest"].universal_state
        self._replace_everywhere(us, self._spanned(
            "hypotest.universal_state", us, before=self._universal_state_bytes))
        self.t_begin = time.perf_counter()

    def uninstall(self) -> None:
        self.t_end = time.perf_counter()
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def aggregate(self) -> dict:
        """Counters, self time per span name, and time covered by root spans."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        covered = 0.0
        for idx, (nid, start, end, parent) in enumerate(self.spans):
            self_s[self.names[nid]] += (end - start) - child[idx]
            if parent < 0:
                covered += end - start
        return {"counts": dict(self.counts), "self_s": dict(self_s), "covered_s": covered,
                "wall_s": self.t_end - self.t_begin}

    def dump(self, path) -> None:
        """Write every span (times relative to install) as gzipped JSON."""
        t0 = self.t_begin
        payload = {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[nid, s - t0, e - t0, p] for nid, s, e, p in self.spans],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh)
