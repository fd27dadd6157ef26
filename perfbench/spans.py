"""Span tracing installed from outside the package, for traced benchmark runs.

A `Tracer` replaces a function by a timing wrapper in the namespace of the
module that calls it (``fixed_point.solve_hjb``, ``fp.laplacian``, ...), so
the package itself is never edited.  Spans are kept in flat in-memory
arrays with their parent ids and the operation they belong to, and are
written out once, when the run ends.  A layer's self time is its spans'
duration minus the time covered by their child spans.

Installing fails loudly (`TraceError`) when a wrapped name no longer exists,
so a refactor that renames or moves a function cannot silently drop a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (module whose namespace holds the call site, name looked up there, span name)
# The span name is "<layer>.<function>"; the layer is the defining module.
WRAPS = [
    ("cli", "run_subcommand", "cli.run_subcommand"),
    ("config", "load_config", "config.load_config"),
    ("cli", "validate_hypotheses", "control.validate_hypotheses"),
    *[(caller, name, f"control.{name}")
      for caller, names in (("hjb", ("h1_terms", "h2_terms", "h1_value", "h2_value")),
                            ("fp", ("h1_terms", "h2_terms")),
                            ("sde", ("h1_terms", "h2_terms")),
                            ("diagnostics", ("h1_value", "h2_value")))
      for name in names],
    *[(caller, name, f"grid.{name}")
      for caller in ("hjb", "fp", "sde") for name in ("laplacian", "grad_central")],
    *[(caller, "coupling_fields", "couplings.coupling_fields")
      for caller in ("fixed_point", "cli", "sde")],
    ("fixed_point", "solve_hjb", "hjb.solve_hjb"),
    ("cli", "solve_hjb", "hjb.solve_hjb"),
    ("fixed_point", "hjb_residual", "hjb.hjb_residual"),
    ("cli", "hjb_residual", "hjb.hjb_residual"),
    ("cli", "linearize", "hjb.linearize"),
    ("cli", "linearization_identity_gap", "hjb.linearization_identity_gap"),
    ("fixed_point", "build_transport_operator", "fp.build_transport_operator"),
    ("fixed_point", "solve_fp", "fp.solve_fp"),
    ("fixed_point", "check_duality", "fp.check_duality"),
    ("fixed_point", "d1_path_sup", "wasserstein.d1_path_sup"),
    ("fixed_point", "holder_half_diagnostic", "wasserstein.holder_half_diagnostic"),
    ("cli", "holder_half_diagnostic", "wasserstein.holder_half_diagnostic"),
    ("cli", "d1", "wasserstein.d1"),
    ("wasserstein", "transport_lp_cost", "wasserstein.transport_lp_cost"),
    ("cli", "picard_solve", "fixed_point.picard_solve"),
    ("cli", "simulate_value", "sde.simulate_value"),
    ("cli", "dpp_check", "sde.dpp_check"),
    ("cli", "modulus_check", "sde.modulus_check"),
    *[("cli", name, f"diagnostics.{name}")
      for name in ("lipschitz_constant", "semiconcavity_constant", "random_triples",
                   "three_point_check", "class_m_check")],
    *[("cli", name, f"fieldio.{name}")
      for name in ("write_field", "write_table", "read_field", "read_manifest")],
]

LAYERS = ("cli", "config", "control", "grid", "couplings", "hjb", "fp", "wasserstein",
          "fixed_point", "sde", "diagnostics", "fieldio")


def _mc_path_steps(cfg, horizon):
    return cfg.num_paths * round(horizon / cfg.dt_mc)


# Work counters recorded at the same boundaries as the spans, computed from
# the call's arguments: span name -> (counter, fn(*args) -> amount).
WORK = {
    "hjb.solve_hjb": ("hjb.node_updates", lambda model, f_path, g, grid: grid.nt * grid.n_nodes),
    "fp.solve_fp": ("fp.node_updates", lambda op, m0: op.grid.nt * op.grid.n_nodes),
    "sde.simulate_value": ("sde.path_steps", lambda u, m, model, cfg, *a: _mc_path_steps(cfg, u.grid.horizon)),
    "sde.dpp_check": ("sde.path_steps", lambda u, m, model, cfg, h: _mc_path_steps(cfg, h)),
    "sde.modulus_check": ("sde.path_steps", lambda model, cfg, hs, *a: _mc_path_steps(cfg, max(hs))),
}


class TraceError(RuntimeError):
    """A wrapped name is missing, or an expected layer recorded no span."""


class Tracer:
    """In-memory span recorder; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.enabled = False
        self.current_op = -1  # -1 marks set-up spans
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for caller, attr, span in WRAPS:
            module = importlib.import_module(f"mfgdiff.{caller}")
            if not callable(getattr(module, attr, None)):
                self.uninstall()
                raise TraceError(f"mfgdiff.{caller} no longer has the name {attr!r} to trace")
            self._installed.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self._wrap(getattr(module, attr), span))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, span: str):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        counter, amount = WORK.get(span, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            if counter is not None:
                self.work[self.current_op][counter] += amount(*args, **kwargs)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with self time = duration minus covered child time."""
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "start": start,
            "end": end,
            "duration": dur,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        spans = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **spans)

    def op_summary(self, op: int) -> dict[str, dict[str, float]]:
        """Per span name, for one operation: calls, self seconds, inclusive seconds."""
        spans = self.arrays()
        sel = spans["op"] == op
        ids, n = spans["name"][sel], len(self.names)
        calls = np.bincount(ids, minlength=n)
        own = np.bincount(ids, weights=spans["self"][sel], minlength=n)
        total = np.bincount(ids, weights=spans["duration"][sel], minlength=n)
        return {
            name: {"calls": int(calls[k]), "self_s": float(own[k]), "total_s": float(total[k])}
            for k, name in enumerate(self.names) if calls[k]
        }
