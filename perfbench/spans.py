"""Outside-in instrumentation of the wideseg package.

Every measurement is taken by replacing a public function at the place
where another module looks it up (``optimizer.eval_J_value``,
``cli.run_eps_ladder``, ...) with a wrapper that records a span: name,
start, end and the index of the enclosing span.  The package source is not
touched; :func:`instrument` restores every attribute on exit.

Two levels exist.  The rung level wraps only the calls that start a
minimization and is used by every run, because the output check and
``rung_converged_frac`` need each minimization's result.  The full level
adds the functional, model, diagnostics, oracle and cli boundaries and is
used by traced runs only.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

from wideseg import cli, continuation, diagnostics, model, optimizer, oracle

# span record fields
NAME, START, END, PARENT = range(4)

VALUE_SPANS = ("functional.eval_J_value", "functional._slice_terms")
GRAD_SPANS = ("functional.grad_J", "functional.potential_gradient")
OUTPUT_SPANS = ("cli.write_csv", "cli.write_field_csv", "cli._write_summary")


@dataclass
class Rung:
    """One minimization as seen from outside: its inputs, result and span."""

    kind: str                  # penalty | refine | equivalence | elliptic
    eps: float                 # nan for stationary solves
    beta: float
    init: str                  # cold | warm
    span: int
    result: object             # OptimizeResult or EllipticResult
    spec: object
    data: object
    grid: object
    support: object
    max_iters: int
    value_calls: int = 0
    grad_calls: int = 0

    @property
    def J(self) -> float:
        return self.result.trace.J if self.kind != "elliptic" else self.result.energy

    @property
    def stop(self) -> str:
        if self.result.converged:
            return "converged"
        if self.result.iters >= self.max_iters - 1:
            return "capped"
        return "no-descent"


@dataclass
class Tracer:
    """Spans and rungs of one pass, kept in memory until the pass ends."""

    full: bool
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    rungs: list = field(default_factory=list)
    field_bytes: int = 0
    march_steps: int = 0
    bumps: int = 0
    v0: object = None          # scenario initial profile, to tell cold starts

    def wrap(self, fn, name, on_exit=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(idx, args, kwargs, out)
            return out

        return wrapper

    # -- rung capture ---------------------------------------------------

    def _rung(self, kind_of, sig):
        def on_exit(idx, args, kwargs, out):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            p = a.arguments
            cfg = p.get("config") or optimizer.OptimizerConfig()
            kind = kind_of(p)
            if kind == "elliptic":
                eps = float("nan")
                cold = p["support"] is None and np.array_equal(
                    p["data"].v0, self.v0)
            else:
                eps = float(p["eps"])
                init = p["init"]
                cold = isinstance(init, str) or np.array_equal(
                    init.values,
                    np.broadcast_to(p["data"].v0[:, None], init.values.shape))
            self.rungs.append(Rung(
                kind=kind, eps=eps, beta=float(p["beta"]),
                init="cold" if cold else "warm", span=idx, result=out,
                spec=p["spec"], data=p["data"], grid=p["grid"],
                support=p["support"], max_iters=cfg.max_iters,
            ))
        return on_exit

    # -- full-trace counters --------------------------------------------

    def _field_size(self, idx, args, kwargs, out):
        self.field_bytes = max(self.field_bytes, args[0].values.nbytes)

    def _steps(self, idx, args, kwargs, out):
        self.march_steps += out.values.shape[1] - 1

    def _lattice(self, idx, args, kwargs, out):
        self.bumps += len(out.bumps)

    def sites(self):
        """(owner, attribute, span name, on_exit) for every wrapped call."""
        minimize_sig = inspect.signature(optimizer.minimize)
        elliptic_sig = inspect.signature(oracle.minimize_elliptic)
        st_kind = lambda p: "penalty" if p["support"] is None else "refine"
        rung = [
            (continuation, "minimize", "optimizer.minimize",
             self._rung(st_kind, minimize_sig)),
            (oracle, "minimize", "optimizer.minimize",
             self._rung(lambda p: "equivalence", minimize_sig)),
            (oracle, "minimize_elliptic", "oracle.minimize_elliptic",
             self._rung(lambda p: "elliptic", elliptic_sig)),
        ]
        if not self.full:
            return rung
        plain = [
            (optimizer, "eval_J_value", "functional.eval_J_value",
             self._field_size),
            (optimizer, "grad_J", "functional.grad_J", None),
            (optimizer, "eval_J", "functional.eval_J", None),
            (cli, "competitor_value", "functional.competitor_value", None),
            (oracle, "_slice_terms", "functional._slice_terms", None),
            (oracle, "potential_gradient", "functional.potential_gradient",
             None),
            (model.SystemSpec, "f_all", "model.f_all", None),
            (model.SystemSpec, "F_sum", "model.F_sum", None),
            (oracle, "projected_bb", "optimizer.projected_bb", None),
            (cli, "run_eps_ladder", "continuation.run_eps_ladder", None),
            (continuation, "run_eps_ladder", "continuation.run_eps_ladder",
             None),
            (continuation, "run_beta_ladder", "continuation.run_beta_ladder",
             None),
            (cli, "to_original_time", "continuation.to_original_time", None),
            (oracle, "to_original_time", "continuation.to_original_time",
             None),
            (continuation, "overlap", "diagnostics.overlap", None),
            (diagnostics, "build_lattice", "diagnostics.build_lattice",
             self._lattice),
        ] + [
            (diagnostics, name, f"diagnostics.{name}", None)
            for name in ("overlap", "check_energy_identity",
                         "check_uniform_windows", "default_windows",
                         "check_level_estimate_across_ladder",
                         "check_weak_inequalities",
                         "check_stationary_inequalities")
        ] + [
            (oracle, "step_parabolic", "oracle.step_parabolic", self._steps),
            (oracle, "compare_with_minimizer",
             "oracle.compare_with_minimizer", None),
            (oracle, "check_elliptic_equivalence",
             "oracle.check_elliptic_equivalence", None),
            (oracle, "elliptic_beta_ladder", "oracle.elliptic_beta_ladder",
             None),
            (cli, "parse_config", "cli.parse_config", None),
            (cli, "make_inputs", "cli.make_inputs", None),
            (cli, "run_pipeline", "cli.run_pipeline", None),
            (cli, "write_csv", "cli.write_csv", None),
            (cli, "write_field_csv", "cli.write_field_csv", None),
            (cli, "_write_summary", "cli._write_summary", None),
        ]
        return rung + plain


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the tracer's wrappers; restore the package on exit."""
    saved = []
    try:
        for owner, attr, name, on_exit in tracer.sites():
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, name, on_exit))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# -- analysis -------------------------------------------------------------

def _durations(spans):
    return np.array([s[END] - s[START] for s in spans])


def self_times(spans) -> np.ndarray:
    """Span duration minus the time covered by its direct children."""
    dur = _durations(spans)
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur - child


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def count_rung_calls(tracer: Tracer) -> None:
    """Attribute value and gradient spans to the minimization enclosing them."""
    spans = tracer.spans
    by_span = {r.span: r for r in tracer.rungs}
    for s in spans:
        is_value = s[NAME] in VALUE_SPANS
        if not is_value and s[NAME] not in GRAD_SPANS:
            continue
        p = s[PARENT]
        while p >= 0 and p not in by_span:
            p = spans[p][PARENT]
        if p >= 0:
            if is_value:
                by_span[p].value_calls += 1
            else:
                by_span[p].grad_calls += 1


def zero_decrease_iters(rung: Rung) -> int:
    hist = getattr(rung.result, "J_history", None)
    if not hist:
        return 0
    h = np.asarray(hist)
    return int(np.count_nonzero(h[1:] == h[:-1]))


def _stages(spans, dur) -> dict:
    """Split ``run_pipeline`` into stages at the first call of each marker.

    ladder: pipeline start to the end of the eps ladder; estimates: to the
    start of the parabolic march; oracle: to the start of the elliptic
    equivalence solve; elliptic: to the pipeline end.  Time spent writing
    artifacts is moved from whichever stage holds it into ``output``.
    """
    names = ("ladder", "estimates", "oracle", "elliptic")
    out = {f"cli.stage.{n}_s": 0.0 for n in names + ("output",)}
    top = [i for i, s in enumerate(spans) if s[NAME] == "cli.run_pipeline"]
    for t in top:
        lo, hi = spans[t][START], spans[t][END]
        inside = [s for s in spans if lo <= s[START] and s[END] <= hi]

        def first(name, edge):
            hits = [s[edge] for s in inside if s[NAME] == name]
            return min(hits) if hits else None

        ladder_end = first("continuation.run_eps_ladder", END) or hi
        march = first("oracle.step_parabolic", START) or hi
        equiv = first("oracle.check_elliptic_equivalence", START) or hi
        cuts = [lo, ladder_end, max(march, ladder_end),
                max(equiv, march, ladder_end), hi]
        bounds = list(zip(names, cuts[:-1], cuts[1:]))
        for n, a, b in bounds:
            out[f"cli.stage.{n}_s"] += b - a
        for s in inside:
            nested = s[PARENT] >= 0 and spans[s[PARENT]][NAME] in OUTPUT_SPANS
            if s[NAME] in OUTPUT_SPANS and not nested:
                d = s[END] - s[START]
                out["cli.stage.output_s"] += d
                for n, a, b in bounds:
                    if a <= s[START] < b:
                        out[f"cli.stage.{n}_s"] -= d
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced pass, keyed by metric name."""
    spans = tracer.spans
    dur = _durations(spans)
    selfs = self_times(spans)
    names = [s[NAME] for s in spans]
    layers = [_layer(n) for n in names]
    count_rung_calls(tracer)

    def total(pred):
        return float(sum(d for n, d in zip(names, dur) if pred(n)))

    def outermost(layer):
        # duration of spans of this layer not nested in another of its spans
        return float(sum(
            d for s, l, d in zip(spans, layers, dur)
            if l == layer and (s[PARENT] < 0 or layers[s[PARENT]] != layer)
        ))

    def layer_self(layer):
        return float(sum(t for l, t in zip(layers, selfs) if l == layer))

    n_value = names.count("functional.eval_J_value")
    n_grad = names.count("functional.grad_J")
    rungs = tracer.rungs
    iters = sum(r.result.iters for r in rungs)
    rung_values = sum(r.value_calls for r in rungs)
    rung_s = sum(dur[r.span] for r in rungs)
    bykind = lambda k: [r for r in rungs if r.kind == k]
    march_s = total(lambda n: n == "oracle.step_parabolic")

    m = {
        "functional.value_calls": n_value,
        "functional.grad_calls": n_grad,
        "functional.value_ms": 1e3 * total(lambda n: n == "functional.eval_J_value")
        / max(n_value, 1),
        "functional.grad_ms": 1e3 * total(lambda n: n == "functional.grad_J")
        / max(n_grad, 1),
        "functional.busy_s": outermost("functional"),
        "functional.field_bytes": tracer.field_bytes,
        "model.reaction_s": outermost("model"),
        "optimizer.rungs": len(rungs),
        "optimizer.iters": iters,
        "optimizer.accept_ratio": iters / max(rung_values, 1),
        "optimizer.zero_decrease_iters": sum(zero_decrease_iters(r) for r in rungs),
        "optimizer.capped_rungs": sum(r.stop == "capped" for r in rungs),
        "optimizer.rung_fail_frac": sum(not r.result.converged for r in rungs)
        / max(len(rungs), 1),
        "optimizer.self_s": layer_self("optimizer"),
        "optimizer.iter_ms": 1e3 * rung_s / max(iters, 1),
        "continuation.penalty_s": float(sum(dur[r.span] for r in bykind("penalty"))),
        "continuation.refine_s": float(sum(dur[r.span] for r in bykind("refine"))),
        "continuation.refine_iters": sum(r.result.iters for r in bykind("refine")),
        "continuation.self_s": layer_self("continuation"),
        "oracle.march_steps": tracer.march_steps,
        "oracle.step_ms": 1e3 * march_s / max(tracer.march_steps, 1),
        "oracle.elliptic_s": total(lambda n: n == "oracle.elliptic_beta_ladder"),
        "oracle.elliptic_iters": sum(r.result.iters for r in bykind("elliptic")),
        "oracle.equivalence_s": total(
            lambda n: n == "oracle.check_elliptic_equivalence"),
        "diagnostics.busy_s": outermost("diagnostics"),
        "diagnostics.bumps": tracer.bumps,
        "cli.setup_s": total(lambda n: n in ("cli.parse_config", "cli.make_inputs")),
    }
    m.update(_stages(spans, dur))
    return m
