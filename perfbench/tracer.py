"""Per-layer timing and work counts for s3sigma, from outside the package.

`Tracer.install()` replaces every public function of the traced modules
by a timing wrapper, at its home module and at every other s3sigma module
that imported it by name (`classical` and `sigma_group` bind
`geometry.dual_field`, `quantum` binds `qpoly.eval_many`, ...).  It also
wraps `QPoly.__call__`, and counts `QPoly.__init__` and validated
`ChartCoords.__post_init__` calls.  `Tracer.remove()` puts every original
back.

Spans are aggregated per function as they close (calls, inclusive time,
self time), not kept one by one: the poisson workload alone makes over a
million traced calls.  Self time is a span's duration minus the time of
the traced spans it encloses.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

TRACED_MODULES = ("numdiff", "geometry", "classical", "sigma_group", "qpoly",
                  "quadrature", "quantum", "suite")


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    misses: int = 0


class Tracer:
    """Install, aggregate and remove the wrappers; one instance per traced run."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {"qpoly.polys_built": 0, "geometry.chart_coords.built": 0}
        self.theta_inputs: set[tuple] = set()
        self.eigen_backend_s: dict[str, float] = {"analytic": 0.0, "fd": 0.0}
        self._stack: list[float] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        pre, post = self._hooks(name)
        stack = self._stack
        active = self._active
        active[name] = 0
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(stat, args, kwargs)
            stack.append(0.0)
            active[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                active[name] -= 1
                stat.calls += 1
                stat.self_s += dt - child
                if not active[name]:  # inclusive time of the outermost call only
                    stat.s += dt
                if stack:
                    stack[-1] += dt
                if post is not None:
                    post(stat, args, kwargs, dt, child)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += 1  # counted once the call returned, i.e. validated
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _hooks(self, name: str):
        """(pre, post) callbacks that add a function's own counters, or None."""
        if name == "classical.theta_of_darboux":
            seen = self.theta_inputs

            def pre(stat, args, kwargs):
                sign = args[3] if len(args) > 3 else kwargs.get("rho_sign", 1)
                cfg = args[2]
                seen.add((_key(args[0]), _key(args[1]), cfg.R, cfg.m, sign))
            return pre, None
        if name == "sigma_group.compose_many":
            def pre(stat, args, kwargs):
                stat.work += len(args[0])
            return pre, None
        if name == "qpoly.eval_many":
            def pre(stat, args, kwargs):
                stat.work += sum(len(p.terms) for p in args[0]) * _points(args[1])
            return pre, None
        if name == "qpoly.call":
            def pre(stat, args, kwargs):
                stat.work += len(args[0].terms) * _points(args[1])
            return pre, None
        if name == "quantum.basis_norm_constant":
            def post(stat, args, kwargs, dt, child):
                if child > 0.0:  # a cache hit calls no traced layer
                    stat.misses += 1
            return None, post
        if name == "quantum.eigen_residual_table":
            split = self.eigen_backend_s

            def post(stat, args, kwargs, dt, child):
                backend = args[3] if len(args) > 3 else kwargs.get("backend", "analytic")
                split[backend] = split.get(backend, 0.0) + dt
            return None, post
        return None, None

    def install(self) -> "Tracer":
        mods = {name: sys.modules[f"s3sigma.{name}"] for name in TRACED_MODULES}
        sites = [m for key, m in sys.modules.items()
                 if m is not None and (key == "s3sigma" or key.startswith("s3sigma."))]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapped = self._span(name, obj)
                for site in sites:  # the home module and every import-by-name site
                    for key, val in list(vars(site).items()):
                        if val is obj:
                            self._set(site, key, wrapped)
        qpoly = mods["qpoly"].QPoly
        self._set(qpoly, "__call__", self._span("qpoly.call", qpoly.__call__))
        self._set(qpoly, "__init__", self._counter("qpoly.polys_built", qpoly.__init__))
        chart = mods["geometry"].ChartCoords
        self._set(chart, "__post_init__",
                  self._counter("geometry.chart_coords.built", chart.__post_init__))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json that a traced round yields."""
        st = self.stats
        theta = st["classical.theta_of_darboux"]
        out = {f"{name}.s": st[name].s for name in sorted(st) if name.startswith("suite.check_")}
        out.update({
            "numdiff.partial.calls": st["numdiff.partial"].calls,
            "numdiff.partial.self_s": st["numdiff.partial"].self_s,
            "numdiff.jacobian.calls": st["numdiff.jacobian"].calls,
            "numdiff.jacobian.s": st["numdiff.jacobian"].s,
            "classical.poisson_bracket.calls": st["classical.poisson_bracket"].calls,
            "classical.poisson_bracket.s": st["classical.poisson_bracket"].s,
            "classical.jacobi_residual.calls": st["classical.jacobi_residual"].calls,
            "classical.jacobi_residual.s": st["classical.jacobi_residual"].s,
            "classical.theta_of_darboux.calls": theta.calls,
            "classical.theta_of_darboux.self_s": theta.self_s,
            "classical.theta_of_darboux.distinct_ratio":
                len(self.theta_inputs) / theta.calls if theta.calls else 1.0,
            "classical.geodesic_integrate.s": st["classical.geodesic_integrate"].s,
            "classical.christoffel.calls": st["classical.christoffel"].calls,
            "geometry.dual_field.calls": st["geometry.dual_field"].calls,
            "geometry.dual_field.self_s": st["geometry.dual_field"].self_s,
            "geometry.metric.calls": st["geometry.metric"].calls,
            "geometry.metric.self_s": st["geometry.metric"].self_s,
            "geometry.chart_coords.built": self.counts["geometry.chart_coords.built"],
            "sigma_group.compose_many.calls": st["sigma_group.compose_many"].calls,
            "sigma_group.compose_many.elements": st["sigma_group.compose_many"].work,
            "sigma_group.compose_many.s": st["sigma_group.compose_many"].s,
            "sigma_group.right_fields.calls": st["sigma_group.right_fields"].calls,
            "sigma_group.right_fields.self_s": st["sigma_group.right_fields"].self_s,
            "sigma_group.left_fields.calls": st["sigma_group.left_fields"].calls,
            "sigma_group.left_fields.self_s": st["sigma_group.left_fields"].self_s,
            "sigma_group.bracket_table_report.s": st["sigma_group.bracket_table_report"].s,
            "sigma_group.characteristic_check.s": st["sigma_group.characteristic_check"].s,
            "qpoly.call.calls": st["qpoly.call"].calls,
            "qpoly.call.term_points": st["qpoly.call"].work,
            "qpoly.call.self_s": st["qpoly.call"].self_s,
            "qpoly.eval_many.calls": st["qpoly.eval_many"].calls,
            "qpoly.eval_many.term_points": st["qpoly.eval_many"].work,
            "qpoly.eval_many.s": st["qpoly.eval_many"].s,
            "qpoly.polys_built": self.counts["qpoly.polys_built"],
            "quantum.eigen_residual_table.analytic_s": self.eigen_backend_s["analytic"],
            "quantum.eigen_residual_table.fd_s": self.eigen_backend_s["fd"],
            "quantum.gram_matrix.s": st["quantum.gram_matrix"].s,
            "quantum.hermiticity_check.s": st["quantum.hermiticity_check"].s,
            "quantum.basis_norm_constant.calls": st["quantum.basis_norm_constant"].calls,
            "quantum.basis_norm_constant.misses": st["quantum.basis_norm_constant"].misses,
            "quadrature.build_grid.calls": st["quadrature.build_grid"].calls,
            "quadrature.build_grid.s": st["quadrature.build_grid"].s,
            "quadrature.integrate_values.calls": st["quadrature.integrate_values"].calls,
            "quadrature.integrate_values.s": st["quadrature.integrate_values"].s,
        })
        return out


def _key(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _points(q) -> int:
    shape = np.shape(q)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1
