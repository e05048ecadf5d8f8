"""Spans and counters around the public functions of every covkg module.

The program itself records nothing.  ``Tracer.install`` wraps each public
module-level function of each ``covkg`` module, the ``at`` method of every
field-history class and ``Report.to_json``, and counts the numpy calls the
layers are built from (FFTs, determinants, Python-level grid-cell loops).
A grid cell is counted for the module of the innermost open span, so the
``np.ndindex`` loops of ``multisymplectic`` and ``phase_space`` are told apart.

The covkg modules bind names with ``from .x import name``, so a function is
reached through several module dictionaries.  Each name is patched wherever
it is looked up: every covkg module dictionary and every dict, list or
tuple held at module level (``suites.SUITES``).  ``missed_references``
re-scans the same places and reports any original that is still reachable.

A span's self time is its duration minus the durations of the spans it
called.  Numpy hooks count calls but open no span, so the self time of
``mode_sum_grid`` includes its FFT.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Methods that carry named layers but are not module-level functions.
_METHODS = (
    ("solution", "SolutionHistory", "at"),
    ("solution", "DetunedHistory", "at"),
    ("solution", "PolynomialTimeHistory", "at"),
    ("solution", "WindowedPerturbation", "at"),
    ("reporting", "Report", "to_json"),
)
_PREQUANT_OPS = ("prequant.op_a", "prequant.op_a_star", "prequant.op_p")
_POINTWISE = ("phase_space.omega_sigma_pointwise",
              "phase_space.theta_sigma_pointwise")


def covkg_modules():
    """The imported covkg modules, keyed by their short name."""
    return {name.partition(".")[2] or "covkg": mod
            for name, mod in sorted(sys.modules.items())
            if (name == "covkg" or name.startswith("covkg.")) and mod}


def _containers(short, mod):
    """(label, namespace) pairs of a module in which a function can be found."""
    yield short, vars(mod)
    for attr, value in list(vars(mod).items()):
        if isinstance(value, (dict, list, tuple)):
            yield f"{short}.{attr}", value


class Tracer:
    """Per-name call counts, inclusive and self seconds, plus counters."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = Counter()
        self._stack = []
        self._undo = []
        self._originals = {}
        self._observe = self._observers()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stat = self.spans[name]
        stack = self._stack
        observe = self._observe.get(name)
        module = name.partition(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([0.0, module])  # child seconds, module of the span
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()[0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _observers(self):
        counts = self.counts

        def nonzero(coeffs):
            return set(np.flatnonzero(np.asarray(coeffs, dtype=complex)).tolist())

        def op_a(args, kwargs, result):
            f, state = args
            nz = nonzero(f)
            counts["terms_in"] += len(state.coeffs)
            counts["terms_out"] += len(result.coeffs)
            counts["terms_attempted"] += sum(k in nz for alpha in state.coeffs
                                             for k, _ in alpha)

        def op_a_star(args, kwargs, result):
            g, state = args
            counts["terms_in"] += len(state.coeffs)
            counts["terms_out"] += len(result.coeffs)
            counts["terms_attempted"] += len(state.coeffs) * len(nonzero(g))

        def op_p(args, kwargs, result):
            state = args[1]
            counts["terms_in"] += len(state.coeffs)
            counts["terms_out"] += len(result.coeffs)
            counts["terms_attempted"] += len(state.coeffs)

        return {"prequant.op_a": op_a, "prequant.op_a_star": op_a_star,
                "prequant.op_p": op_p}

    def _numpy_hooks(self):
        counts = self.counts
        stack = self._stack

        def fft_hook(orig, key):
            def hook(a, *args, **kwargs):
                counts[key] += 1
                counts["fft_points"] += np.size(a)
                return orig(a, *args, **kwargs)
            return hook

        def det_hook(a):
            counts["det"] += 1
            return det(a)

        class CountingNdindex(np.ndindex):
            def __next__(self):
                index = super().__next__()
                counts["cells." + (stack[-1][1] if stack else "")] += 1
                return index

        det = np.linalg.det
        return [(np.fft, "fftn", fft_hook(np.fft.fftn, "fftn")),
                (np.fft, "ifftn", fft_hook(np.fft.ifftn, "ifftn")),
                (np.linalg, "det", det_hook),
                (np, "ndindex", CountingNdindex)]

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        """Patch every covkg call site; undo with ``remove``."""
        mods = covkg_modules()
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._span(name, obj)
                    self._originals[name] = obj
        for short, mod in mods.items():
            for _, container in _containers(short, mod):
                if isinstance(container, tuple):
                    continue  # immutable; missed_references reports it
                for key, value in _items(container):
                    if id(value) in wrapped:
                        self._set(container, key, wrapped[id(value)])
        for short, cls_name, meth in _METHODS:
            cls = getattr(mods[short], cls_name)
            orig = vars(cls)[meth]
            name = f"{short}.{cls_name}.{meth}"
            self._originals[name] = orig
            self._set(cls, meth, self._span(name, orig))
        for target, attr, hook in self._numpy_hooks():
            self._originals[f"numpy.{attr}"] = getattr(target, attr)
            self._set(target, attr, hook)

    def _set(self, target, key, value) -> None:
        if isinstance(target, (dict, list)):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def remove(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, (dict, list)):
                target[key] = value
            else:
                setattr(target, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def missed_references(self) -> list:
        """Places where a covkg module can still reach an unwrapped original."""
        originals = {id(fn): name for name, fn in self._originals.items()}
        missed = []
        for short, mod in covkg_modules().items():
            for label, container in _containers(short, mod):
                for key, value in _items(container):
                    if id(value) in originals:
                        missed.append(f"{label}[{key!r}] -> "
                                      f"{originals[id(value)]}")
        return missed

    # -- results ----------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.spans[n][0] for n in names if n in self.spans)

    def incl(self, *names) -> float:
        return sum(self.spans[n][1] for n in names if n in self.spans)

    def self_s(self, *names) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far."""
        c = self.counts
        at = [f"solution.{cls}.at" for _, cls, meth in _METHODS
              if meth == "at"]
        spectral = ("lattice.spectral_gradient", "lattice.spectral_laplacian")
        forms = ("multisymplectic.omega_eval", "multisymplectic.theta_eval")
        attempted = c["terms_attempted"]
        return {
            "lattice.fft_calls": c["fftn"] + c["ifftn"],
            "lattice.fft_points": c["fft_points"],
            "lattice.mode_sum_grid_calls": self.calls("lattice.mode_sum_grid"),
            "lattice.mode_sum_grid_self_s": self.self_s("lattice.mode_sum_grid"),
            "lattice.spectral_calls": self.calls(*spectral),
            "lattice.spectral_self_s": self.self_s(*spectral),
            "solution.synthesize_calls": self.calls("solution.synthesize"),
            "solution.synthesize_self_s": self.self_s("solution.synthesize"),
            "solution.history_at_calls": self.calls(*at),
            "solution.evaluate_fields_calls":
                self.calls("solution.evaluate_fields"),
            "multisymplectic.action_of_history_calls":
                self.calls("multisymplectic.action_of_history"),
            "multisymplectic.action_of_history_s":
                self.incl("multisymplectic.action_of_history"),
            "multisymplectic.hamilton_residual_s":
                self.incl("multisymplectic.hamilton_residual"),
            "multisymplectic.omega_eval_calls":
                self.calls("multisymplectic.omega_eval"),
            "multisymplectic.theta_eval_calls":
                self.calls("multisymplectic.theta_eval"),
            "multisymplectic.forms_self_s": self.self_s(*forms),
            "multisymplectic.det_calls": c["det"],
            "multisymplectic.pointwise_cells": c["cells.multisymplectic"],
            "multisymplectic.hamilton_pointwise_residual_s":
                self.incl("multisymplectic.hamilton_pointwise_residual"),
            "phase_space.gram_matrix_s": self.incl("phase_space.gram_matrix"),
            "phase_space.pointwise_s": self.incl(*_POINTWISE),
            "phase_space.pointwise_cells": c["cells.phase_space"],
            "phase_space.omega_sigma_calls":
                self.calls("phase_space.omega_sigma"),
            "phase_space.fd_delta_theta_s":
                self.incl("phase_space.fd_delta_theta"),
            "observables.slice_integral_calls":
                self.calls("observables.slice_integral"),
            "observables.slice_integral_s":
                self.incl("observables.slice_integral"),
            "observables.noether_divergence_s":
                self.incl("observables.noether_divergence"),
            "observables.bracket_slice_integral_s":
                self.incl("observables.bracket_slice_integral"),
            "prequant.op_calls": self.calls(*_PREQUANT_OPS),
            "prequant.op_self_s": self.self_s(*_PREQUANT_OPS),
            "prequant.commutator_calls": self.calls("prequant.commutator"),
            "prequant.commutator_s": self.incl("prequant.commutator"),
            "prequant.inner_product_s": self.incl("prequant.inner_product"),
            "prequant.terms_in": c["terms_in"],
            "prequant.terms_out": c["terms_out"],
            "prequant.coalesce_ratio":
                c["terms_out"] / attempted if attempted else 0.0,
            "suites.msymp_s": self.incl("suites.suite_msymp"),
            "suites.observables_s": self.incl("suites.suite_observables"),
            "suites.phase_space_s": self.incl("suites.suite_phase_space"),
            "suites.prequant_s": self.incl("suites.suite_prequant"),
            "reporting.to_json_s": self.incl("reporting.Report.to_json"),
        }

    def anchor_counts(self) -> dict:
        """Raw counts that the baseline anchors are stated in."""
        c = self.counts
        return {"synthesize": self.calls("solution.synthesize"),
                "fftn": c["fftn"], "ifftn": c["ifftn"],
                "omega_eval": self.calls("multisymplectic.omega_eval"),
                "det": c["det"]}


def _items(container):
    if isinstance(container, dict):
        return list(container.items())
    return list(enumerate(container))
