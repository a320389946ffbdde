"""Spans and counters around pgaplab's public functions, from outside.

`Tracer.install()` replaces module attributes (and the same function
object wherever another pgaplab module imported it by name, e.g.
`gaps.multistart_minimize` or `energy.power_norm`) and class attributes
with wrappers.  Spans (name, start, end, parent) and counts are kept in
memory; `write_spans` writes them out at the end of a run.

Two kinds of wrapper:

- a span opens a frame on the stack; its self time is its duration minus
  the durations of its direct child spans;
- a probe only counts calls (and, when timed, adds up their duration) and
  attributes the call to the innermost open span.  Probes sit on the hot
  leaf functions, so they record no span and their time stays in the self
  time of the span around them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._stack: list[list] = []  # [id, name, start, child time]
        self._patches: list[tuple] = []
        self.reset()

    def reset(self):
        """Start a new round of aggregates; recorded spans are kept."""
        self.time = defaultdict(float)  # name -> total duration
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.calls_in = Counter()  # (name, parent name) -> calls
        self.time_in = defaultdict(float)  # (name, parent name) -> duration
        self.extra = Counter()  # values reported by hooks

    # -- recording ---------------------------------------------------------

    def _parent(self):
        return self._stack[-1][1] if self._stack else None

    def enter(self, name: str):
        # completed plus open spans: a fresh number for every span entered
        self._stack.append([len(self.spans) + len(self._stack), name, _clock(), 0.0])

    def leave(self):
        sid, name, start, child = self._stack.pop()
        end = _clock()
        dur = end - start
        parent = self._parent()
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, self._stack[-1][0] if self._stack else -1, name, start, end))
        self.time[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        self.calls_in[name, parent] += 1
        self.time_in[name, parent] += dur

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  before(args, kwargs) may return (args, kwargs,
        cleanup); after(result, args) sees the result."""

        def wrapper(*args, **kwargs):
            cleanup = None
            if before is not None:
                args, kwargs, cleanup = before(args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
                if cleanup is not None:
                    cleanup()
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def probe(self, name, fn, timed=True):
        """Wrap fn in a call counter, also timed unless timed=False."""

        def counter(*args, **kwargs):
            self.calls[name] += 1
            self.calls_in[name, self._parent()] += 1
            if not timed:
                return fn(*args, **kwargs)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.time[name] += _clock() - start

        counter.__wrapped__ = fn
        return counter

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, make):
        """Replace module.attr, and every pgaplab module's alias of it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "pgaplab" or name.startswith("pgaplab.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr, make):
        self._set(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap the public functions of each pgaplab layer."""
        from pgaplab import _optimize, action, cli, energy, gaps, gradient, groups, lpspace
        from pgaplab import moduli, verify

        span, probe = self.span, self.probe

        def ball_before(args, kwargs):
            # count the multiplies of this call only; nested calls (full_ball
            # grows the radius one step at a time) swap in their own counter
            handle = args[0]
            original = handle.multiply
            handle.multiply = probe("groups.multiply", original, timed=False)

            def restore():
                handle.multiply = original

            return args, kwargs, restore

        def outermost_table(result, args):
            if self._parent() not in ("groups.ball", "groups.full_ball"):
                self.extra["groups.table_entries"] += result.translate.size

        self.patch_function(
            groups, "ball", lambda f: span("groups.ball", f, ball_before, outermost_table)
        )
        self.patch_function(
            groups, "full_ball", lambda f: span("groups.full_ball", f, None, outermost_table)
        )

        self.patch_function(lpspace, "power_norm", lambda f: probe("lpspace.power_norm", f))
        self.patch_method(
            lpspace.LpVector, "__post_init__", lambda f: probe("lpspace.LpVector", f, timed=False)
        )

        self.patch_method(
            action.Representation, "apply_array", lambda f: probe("action.apply_array", f)
        )
        for cls in (action.Domain, action.MeanZeroDomain, action.DirichletDomain):
            self.patch_method(cls, "restrict_dual", lambda f: span("action.restrict_dual", f))

        self.patch_function(
            energy, "displacement_energy", lambda f: span("energy.displacement_energy", f)
        )
        self.patch_function(energy, "p_laplacian", lambda f: span("energy.p_laplacian", f))

        def count_iterations(trace, args):
            self.extra["gradient.descend_iterations"] += len(trace.rows)

        self.patch_function(
            gradient, "descend", lambda f: span("gradient.descend", f, None, count_iterations)
        )
        self.patch_function(
            gradient,
            "abs_gradient_sampled",
            lambda f: span("gradient.abs_gradient_sampled", f),
        )

        def wrap_objective(args, kwargs):
            return (probe("optimize.objective", args[0]),) + args[1:], kwargs, None

        self.patch_function(
            _optimize,
            "multistart_minimize",
            lambda f: span("optimize.multistart_minimize", f, wrap_objective),
        )
        self.patch_function(
            _optimize, "sphere_minimize", lambda f: span("optimize.sphere_minimize", f)
        )

        for attr in (
            "ensure_no_fixed_vectors",
            "displacement_constant",
            "gradient_constant",
            "laplacian_constant",
            "cyclic_exact_constants",
            "equivalence_report",
        ):
            self.patch_function(gaps, attr, lambda f, a=attr: span(f"gaps.{a}", f))
        self.patch_function(
            gaps, "laplacian_ratio", lambda f: probe("gaps.laplacian_ratio", f, timed=False)
        )

        for attr in ("modulus_convexity", "modulus_smoothness", "duality_continuity_check"):
            self.patch_function(moduli, attr, lambda f, a=attr: span(f"moduli.{a}", f))
        self.patch_function(moduli, "minimize", lambda f: span("moduli.slsqp", f))

        self.patch_function(verify, "run_suites", lambda f: span("verify.run_suites", f))

        def report_bytes(args, kwargs):
            self.extra["cli.report_bytes"] += len(args[1].encode())
            return args, kwargs, None

        self.patch_function(cli, "canonical_json", lambda f: span("cli.canonical_json", f))
        self.patch_function(
            cli, "write_atomic", lambda f: span("cli.write_atomic", f, report_bytes)
        )

    # -- per-layer metrics -------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of the current round (see the README)."""
        t, st, n, n_in, t_in, x = (
            self.time,
            self.self_time,
            self.calls,
            self.calls_in,
            self.time_in,
            self.extra,
        )

        def ratio(a, b):
            return a / b if b else 0.0

        ball_s = t["groups.full_ball"] + sum(
            d for (name, parent), d in t_in.items()
            if name == "groups.ball" and parent != "groups.full_ball"
        )
        trajectories = n_in["optimize.sphere_minimize", "optimize.multistart_minimize"]
        descend_evals = n_in["energy.displacement_energy", "gradient.descend"]
        return {
            "groups.ball_s": ball_s,
            "groups.multiply_calls": n["groups.multiply"],
            "groups.multiplies_per_entry": ratio(
                n["groups.multiply"], x["groups.table_entries"]
            ),
            "lpspace.power_norm_calls": n["lpspace.power_norm"],
            "lpspace.power_norm_s": t["lpspace.power_norm"],
            "lpspace.vectors_built": n["lpspace.LpVector"],
            "action.gather_calls": n["action.apply_array"],
            "action.gather_s": t["action.apply_array"],
            "action.restrict_dual_s": t["action.restrict_dual"],
            "energy.energy_calls": n["energy.displacement_energy"],
            "energy.energy_s": t["energy.displacement_energy"],
            "energy.laplacian_calls": n["energy.p_laplacian"],
            "gradient.descend_s": t["gradient.descend"],
            "gradient.descend_iterations": x["gradient.descend_iterations"],
            "gradient.descend_energy_evals": descend_evals,
            "gradient.evals_per_iteration": ratio(
                descend_evals, x["gradient.descend_iterations"]
            ),
            "gradient.sampled_s": t["gradient.abs_gradient_sampled"],
            "optimize.multistart_s": t["optimize.multistart_minimize"],
            "optimize.trajectories": trajectories,
            "optimize.objective_evals": n["optimize.objective"],
            "optimize.evals_per_trajectory": ratio(n["optimize.objective"], trajectories),
            "optimize.objective_s": t["optimize.objective"],
            "optimize.polish_s": t_in["optimize.sphere_minimize", "gaps.displacement_constant"],
            "gaps.guard_s": t["gaps.ensure_no_fixed_vectors"],
            "gaps.displacement_s": t["gaps.displacement_constant"],
            "gaps.gradient_s": t["gaps.gradient_constant"],
            "gaps.laplacian_s": t["gaps.laplacian_constant"],
            "gaps.exact_oracle_s": t["gaps.cyclic_exact_constants"],
            "gaps.pool_reeval_s": st["gaps.equivalence_report"],
            "gaps.pool_vectors": n_in["gaps.laplacian_ratio", "gaps.equivalence_report"],
            "moduli.convexity_s": t["moduli.modulus_convexity"],
            "moduli.smoothness_s": t["moduli.modulus_smoothness"],
            "moduli.continuity_s": t["moduli.duality_continuity_check"],
            "moduli.slsqp_solves": n["moduli.slsqp"],
            "moduli.slsqp_s": t["moduli.slsqp"],
            "verify.suites_s": t["verify.run_suites"],
            "cli.report_s": t["cli.canonical_json"] + t["cli.write_atomic"],
            "cli.report_bytes": x["cli.report_bytes"],
        }

    def write_spans(self, path):
        """One line per span: id, parent id (-1 for a root), name, start, end."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r}\n")

