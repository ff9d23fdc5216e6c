"""Span tracing of fracgap's layers from outside the library.

`Tracer.install` replaces each traced public function by a timing wrapper
at every place a fracgap module binds it: `fracgap.cli.eigensolve` as well
as `fracgap.spectral.eigensolve`, and `Potential.__call__` on its class.
No library file changes. Spans stay in memory and are written out once, at
the end of the run. A traced name that the library no longer has is
recorded as absent, with the reason, instead of stopping the run.

`layer_metrics` turns the spans of one pass into the per-layer metrics that
BENCHMARK.json lists under "per_layer".
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("cli", "spectral", "forms", "numerics", "poincare", "montecarlo",
          "potentials", "serialize")


def _fk_steps(a, result):
    return {"path_steps": int(np.size(a["x_points"])) * int(a["n_paths"])
            * int(a["cfg"].n_steps)}


def _samples(a, result):
    return {"samples": 1 if a.get("size") is None else int(a["size"])}


def _points(a, result):
    return {"points": int(np.size(a["x"]))}


def _assemble(a, result):
    n = result.grid.n
    return {"bytes": 8 * n * n}


def _eigensolve(a, result):
    op = a["op"]
    n = op.grid.n
    diag = np.diagonal(op.matrix)
    symmetric = float(np.max(np.abs(diag - diag[::-1]))) <= 1e-12 * float(np.max(np.abs(diag)))
    return {"n3": n ** 3, "residual": float(np.max(result.residuals)),
            "symmetric": symmetric}


def _witness(a, result):
    return {"depth": int(result.n0)}


def _integrand(a, result):
    pl = importlib.import_module("fracgap.poincare").PiecewiseLinear
    return {"pl": isinstance(a["f"], pl) and (a["w"] is None or isinstance(a["w"], pl))}


def _text_bytes(a, result):
    return {"bytes": len(a["text"].encode())}


# (module, attribute, span name, probe). A probe reads the bound arguments
# and the result of one call after its span has closed.
TRACED = (
    ("fracgap.cli", "run", "cli.run", None),
    ("fracgap.spectral", "assemble_operator", "spectral.assemble_operator", _assemble),
    ("fracgap.spectral", "eigensolve", "spectral.eigensolve", _eigensolve),
    ("fracgap.spectral", "richardson", "spectral.richardson", None),
    ("fracgap.spectral", "ground_state_shape_check", "spectral.checks", None),
    ("fracgap.spectral", "boundary_decay_check", "spectral.checks", None),
    ("fracgap.spectral", "lambda_star", "spectral.checks", None),
    ("fracgap.forms", "check_gaps", "forms.check_gaps", None),
    ("fracgap.forms", "rayleigh_gap", "forms.rayleigh_gap", None),
    ("fracgap.numerics", "singular_double_integral",
     "numerics.singular_double_integral", _integrand),
    ("fracgap.numerics", "integrate_1d", "numerics.integrate_1d", None),
    ("fracgap.poincare", "poincare_check", "poincare.poincare_check", None),
    ("fracgap.poincare", "witness_search", "poincare.witness_search", _witness),
    ("fracgap.poincare", "weighted_poincare_check", "poincare.weighted_poincare_check", None),
    ("fracgap.poincare", "counterexample_scan", "poincare.counterexample_scan", None),
    ("fracgap.montecarlo", "estimate_feynman_kac", "montecarlo.estimate_feynman_kac", _fk_steps),
    ("fracgap.montecarlo", "sample_subordinator_increment",
     "montecarlo.sample_subordinator_increment", _samples),
    ("fracgap.montecarlo", "gaussian_chain", "montecarlo.gaussian_chain", None),
    ("fracgap.potentials", "Potential.__call__", "potentials.eval", _points),
    ("fracgap.serialize", "write_atomic", "serialize.write_atomic", _text_bytes),
    ("fracgap.serialize", "dumps_json", "serialize.encode", None),
    ("fracgap.serialize", "csv_text", "serialize.encode", None),
)


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._op: int | None = None

    # -- spans
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self._op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def op_span(self, op_id: int, kind: str):
        """Context manager for one benchmark operation; library spans nest inside."""
        tracer = self

        class _OpSpan:
            def __enter__(self):
                tracer._op = op_id
                self.span = tracer._open("bench.op")
                self.span.attrs["kind"] = kind

            def __exit__(self, *exc):
                tracer._close(self.span)
                tracer._op = None
                return False

        return _OpSpan()

    # -- patching
    def _wrap(self, func, name: str, probe):
        tracer = self
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span)
            if probe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs.update(probe(bound.arguments, result))
                except (AttributeError, KeyError, TypeError) as exc:
                    # A changed signature or result type loses the counts, not the run.
                    tracer.absent[f"{name} counts"] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def install(self, targets=TRACED) -> None:
        for module_name, attr, name, probe in targets:
            where = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = (owner.__dict__[leaf] if owner_name else getattr(module, leaf))
            except (ImportError, AttributeError, KeyError) as exc:
                self.absent[where] = f"{type(exc).__name__}: {exc}"
                continue
            wrapper = self._wrap(original, name, probe)
            if owner_name:
                self._bind(owner, leaf, wrapper)
                continue
            # Every fracgap module that imported the function by name.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "fracgap" or mod_name.startswith("fracgap."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, key, wrapper)

    def _bind(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path, header: dict) -> None:
        """All spans as JSON lines after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "absent": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "op": s.op,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, **s.attrs}) + "\n")


# (metric, unit); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("montecarlo.estimate_feynman_kac.s", "s"),
    ("montecarlo.sample_subordinator_increment.calls", "count"),
    ("montecarlo.sample_subordinator_increment.samples", "count"),
    ("montecarlo.sample_subordinator_increment.s", "s"),
    ("montecarlo.path_step.self_s", "s"),
    ("montecarlo.path_steps", "count"),
    ("montecarlo.ns_per_path_step", "ns"),
    ("montecarlo.gaussian_chain.s", "s"),
    ("potentials.eval.calls", "count"),
    ("potentials.eval.points", "count"),
    ("potentials.eval.s", "s"),
    ("spectral.assemble_operator.calls", "count"),
    ("spectral.assemble_operator.s", "s"),
    ("spectral.assemble_operator.bytes_computed", "bytes"),
    ("spectral.eigensolve.calls", "count"),
    ("spectral.eigensolve.s", "s"),
    ("spectral.eigensolve.sym_s", "s"),
    ("spectral.eigensolve.asym_s", "s"),
    ("spectral.eigensolve.n3_sum", "count"),
    ("spectral.eigensolve.max_residual", "abs"),
    ("spectral.richardson.s", "s"),
    ("spectral.checks.s", "s"),
    ("forms.check_gaps.calls", "count"),
    ("forms.check_gaps.s", "s"),
    ("forms.rayleigh_gap.s", "s"),
    ("numerics.singular_double_integral.calls", "count"),
    ("numerics.singular_double_integral.s", "s"),
    ("numerics.singular_double_integral.pl_s", "s"),
    ("numerics.singular_double_integral.other_s", "s"),
    ("numerics.singular_double_integral.pl_share", "fraction"),
    ("numerics.integrate_1d.calls", "count"),
    ("numerics.integrate_1d.s", "s"),
    ("poincare.poincare_check.calls", "count"),
    ("poincare.poincare_check.s", "s"),
    ("poincare.witness_search.calls", "count"),
    ("poincare.witness_search.s", "s"),
    ("poincare.witness_search.depth_max", "count"),
    ("poincare.weighted_poincare_check.s", "s"),
    ("poincare.counterexample_scan.s", "s"),
    ("serialize.write_atomic.calls", "count"),
    ("serialize.write_atomic.bytes", "bytes"),
    ("serialize.write_atomic.s", "s"),
    ("serialize.encode.s", "s"),
    ("cli.run.s", "s"),
    ("cli.run.self_s", "s"),
) + tuple((f"{layer}.self_s", "s") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("trace.absent", "count"),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one traced pass: every PER_LAYER name but trace.*.

    `<span>.calls` and `<span>.s` (busy time) exist for every span name; the
    rest are derived below. A name no span produced reads 0.
    """
    covered: dict[int, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.end - s.start

    def busy(name, keep=lambda attrs: True):
        return sum(s.end - s.start for s in by_name.get(name, []) if keep(s.attrs))

    def self_time(name):
        return sum(s.end - s.start - covered.get(s.id, 0.0) for s in by_name.get(name, []))

    def attr(name, key):
        return [s.attrs.get(key, 0) for s in by_name.get(name, [])]

    m = {}
    for name, group in by_name.items():
        m[f"{name}.calls"] = len(group)
        m[f"{name}.s"] = busy(name)

    fk, eig, sdi = ("montecarlo.estimate_feynman_kac", "spectral.eigensolve",
                    "numerics.singular_double_integral")
    path_steps = sum(attr(fk, "path_steps"))
    m.update({
        "montecarlo.sample_subordinator_increment.samples":
            sum(attr("montecarlo.sample_subordinator_increment", "samples")),
        "montecarlo.path_step.self_s": self_time(fk),
        "montecarlo.path_steps": path_steps,
        "montecarlo.ns_per_path_step": 1e9 * busy(fk) / path_steps if path_steps else 0.0,
        "potentials.eval.points": sum(attr("potentials.eval", "points")),
        "spectral.assemble_operator.bytes_computed": sum(attr("spectral.assemble_operator", "bytes")),
        f"{eig}.sym_s": busy(eig, lambda a: a.get("symmetric", False)),
        f"{eig}.asym_s": busy(eig, lambda a: not a.get("symmetric", False)),
        f"{eig}.n3_sum": sum(attr(eig, "n3")),
        f"{eig}.max_residual": max(attr(eig, "residual"), default=0.0),
        f"{sdi}.pl_s": busy(sdi, lambda a: a.get("pl", False)),
        f"{sdi}.other_s": busy(sdi, lambda a: not a.get("pl", False)),
        f"{sdi}.pl_share": sum(attr(sdi, "pl")) / len(attr(sdi, "pl")) if sdi in by_name else 0.0,
        "poincare.witness_search.depth_max": max(attr("poincare.witness_search", "depth"), default=0),
        "serialize.write_atomic.bytes": sum(attr("serialize.write_atomic", "bytes")),
        "cli.run.self_s": self_time("cli.run"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(self_time(name) for name in by_name
                                   if name.split(".")[0] == layer)
    return {name: m.get(name, 0) for name, _ in PER_LAYER if not name.startswith("trace.")}
