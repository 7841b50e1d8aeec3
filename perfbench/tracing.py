"""Spans around the calls into each friendlab layer, recorded from outside.

The tracer replaces a module's public function (or a class attribute) with a
timing wrapper in the namespace where its callers look it up, and puts the
original back afterwards.  No friendlab source is changed.  Spans stay in
memory until the run ends; per-layer self time is a span's duration minus
the durations of its direct children.

Leaf calls made hundreds of thousands of times per item (RunRecord.validate
and RunRecord construction) are aggregated per parent span instead of
recorded one by one: one aggregate keeps the call count and busy time.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, item, attrs)
        self.hot: dict = {}    # (name, parent) -> [calls, busy, first start, last end]
        self.stack: list[int] = []
        self.item: int | None = None
        self.missing: list[str] = []
        self._patched: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name, observe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.item,
                              observe(*args) if observe else None)
        return traced

    def _hot(self, fn, name):
        hot, stack = self.hot, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                key = (name, stack[-1] if stack else None)
                acc = hot.get(key)
                if acc is None:
                    hot[key] = [1, end - start, start, end]
                else:
                    acc[0] += 1
                    acc[1] += end - start
                    acc[3] = end
        return traced

    def patch(self, owner, attr: str, name: str, hot: bool = False, observe=None) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        new = self._hot(fn, name) if hot else self._span(fn, name, observe)
        setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)
        self._patched.append((owner, attr, raw))

    def unpatch(self) -> bool:
        """Put every original back; True when each attribute is the original
        object again."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)
            if vars(owner).get(attr) is not raw:
                return False
        return True

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, item, attrs) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "item": item, **(attrs or {})}
                fh.write(json.dumps(rec) + "\n")
            for sid, ((name, parent), (calls, busy, first, last)) in enumerate(
                    self.hot.items(), start=len(self.spans)):
                rec = {"id": sid, "name": name, "start": first - t0, "end": last - t0,
                       "parent": parent, "item": self.spans[parent][4] if parent is not None
                       else None, "calls": calls, "busy": busy}
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer, fl) -> None:
    """Wrap every layer boundary the per-layer metrics read.  `fl` is the
    friendlab package; each function is wrapped in every namespace the
    CLI's call paths look it up in."""
    cli, mp, scen, hil, rel, stat = (fl.cli, fl.marginal_polytope, fl.scenarios, fl.hilbert,
                                     fl.relmodel, fl.statlab)
    p = tracer.patch
    p(cli, "main", "cli.main")
    p(mp.PairTargets, "from_json_dict", "marginal_polytope.from_json_dict")
    p(mp.PairTargets, "from_angles", "marginal_polytope.from_angles")
    p(mp, "feasible_joint_4", "marginal_polytope.feasible_joint_4")
    p(mp, "feasible_joint_6", "marginal_polytope.feasible_joint_6")
    p(mp, "solve_nonnegative", "marginal_polytope.solve_nonnegative",
      observe=lambda rows, rhs: {"rows": len(rows), "cols": len(rows[0]) if rows else 0})
    p(mp, "fine_criterion", "marginal_polytope.fine_criterion")
    p(scen, "born_pair_table", "scenarios.born_pair_table")
    p(scen, "build_rovelli_states", "scenarios.build_rovelli_states")
    p(scen, "record_spec", "scenarios.record_spec")
    for ns in (scen, cli):
        p(ns, "factor_basis_spec", "hilbert.factor_basis_spec")
    p(rel, "sample_outcome", "hilbert.sample_outcome")
    for ns in (hil, scen, rel, cli):
        p(ns, "born_distribution", "hilbert.born_distribution")
    p(rel, "rovelli_run", "relmodel.rovelli_run")
    p(rel, "simulate_batch", "relmodel.simulate_batch")
    p(rel.RunRecord, "validate", "relmodel.validate", hot=True)
    p(rel.RunRecord, "__init__", "relmodel.RunRecord", hot=True)
    p(rel, "empirical_pair_table", "relmodel.empirical_pair_table")
    p(rel, "check_choice_independence", "relmodel.check_choice_independence")
    p(stat, "total_variation", "statlab.total_variation")


# --- per-layer metrics ----------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, facts: dict, overhead_frac: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.  A layer the
    workload never reaches reads 0."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    in_run = [False] * len(spans)  # span lies inside a relmodel.rovelli_run
    per_call: dict[str, list[float]] = {}
    per_item: dict[str, dict] = {}       # name -> item -> total duration
    self_item: dict[str, dict] = {}      # name -> item -> total self time
    calls: dict[str, int] = {}
    calls_in_run: dict[str, int] = {}
    solve_shape: dict[str, tuple[int, int]] = {}
    for sid, (name, start, end, parent, item, attrs) in enumerate(spans):
        if parent is not None:
            child[parent] += end - start
            in_run[sid] = in_run[parent] or spans[parent][0] == "relmodel.rovelli_run"
    for (name, parent), (n, busy, _, _) in tracer.hot.items():
        if parent is not None:
            child[parent] += busy
        item = spans[parent][4] if parent is not None else None
        calls[name] = calls.get(name, 0) + n
        items = per_item.setdefault(name, {})
        items[item] = items.get(item, 0.0) + busy
    for sid, (name, start, end, parent, item, attrs) in enumerate(spans):
        dur = end - start
        per_call.setdefault(name, []).append(dur)
        items = per_item.setdefault(name, {})
        items[item] = items.get(item, 0.0) + dur
        selfs = self_item.setdefault(name, {})
        selfs[item] = selfs.get(item, 0.0) + dur - child[sid]
        calls[name] = calls.get(name, 0) + 1
        if in_run[sid]:
            calls_in_run[name] = calls_in_run.get(name, 0) + 1
        if attrs and parent is not None:
            solve_shape[spans[parent][0]] = (attrs["rows"], attrs["cols"])

    n_items = max(calls.get("cli.main", 0), 1)
    runs = calls.get("relmodel.rovelli_run", 0)

    def call_ms(name):
        return _median(per_call.get(name, [])) * 1e3

    def item_total(name, scale):
        return _median(list(per_item.get(name, {}).values())) * scale

    def per_item_calls(name):
        return calls.get(name, 0) / n_items

    def per_run(name):
        return calls_in_run.get(name, 0) / runs if runs else 0.0

    build = {}
    for name in ("marginal_polytope.feasible_joint_4", "marginal_polytope.feasible_joint_6"):
        for item, t in self_item.get(name, {}).items():
            build[item] = build.get(item, 0.0) + t
    lp4 = solve_shape.get("marginal_polytope.feasible_joint_4", (0, 0))
    lp6 = solve_shape.get("marginal_polytope.feasible_joint_6", (0, 0))
    mp, sc, hb, rm = "marginal_polytope", "scenarios", "hilbert", "relmodel"
    return {
        "cli.self_ms": (_median(list(self_item.get("cli.main", {}).values())) * 1e3, "ms"),
        f"{mp}.from_json_dict_ms": (call_ms(f"{mp}.from_json_dict"), "ms"),
        f"{mp}.from_angles_ms": (call_ms(f"{mp}.from_angles"), "ms"),
        f"{mp}.feasible_joint_4_ms": (call_ms(f"{mp}.feasible_joint_4"), "ms"),
        f"{mp}.feasible_joint_6_ms": (call_ms(f"{mp}.feasible_joint_6"), "ms"),
        f"{mp}.solve_nonnegative_ms": (item_total(f"{mp}.solve_nonnegative", 1e3), "ms"),
        f"{mp}.solve_nonnegative.calls": (per_item_calls(f"{mp}.solve_nonnegative"), "count"),
        f"{mp}.solve_nonnegative.rows_lp4": (lp4[0], "count"),
        f"{mp}.solve_nonnegative.cols_lp4": (lp4[1], "count"),
        f"{mp}.solve_nonnegative.rows_lp6": (lp6[0], "count"),
        f"{mp}.solve_nonnegative.cols_lp6": (lp6[1], "count"),
        f"{mp}.build_self_ms": (_median(list(build.values())) * 1e3, "ms"),
        f"{mp}.fine_criterion_ms": (call_ms(f"{mp}.fine_criterion"), "ms"),
        f"{mp}.witness_bits_max": (facts["witness_bits_max"], "bits"),
        f"{mp}.infeasible_share": (facts["infeasible_share"], "frac"),
        f"{sc}.born_pair_table_ms": (call_ms(f"{sc}.born_pair_table"), "ms"),
        f"{sc}.born_pair_table.calls": (per_item_calls(f"{sc}.born_pair_table"), "count"),
        f"{sc}.build_rovelli_states_ms": (call_ms(f"{sc}.build_rovelli_states"), "ms"),
        f"{sc}.build_rovelli_states.calls_per_run": (per_run(f"{sc}.build_rovelli_states"),
                                                     "count"),
        f"{sc}.record_spec_ms": (call_ms(f"{sc}.record_spec"), "ms"),
        f"{sc}.record_spec.calls_per_run": (per_run(f"{sc}.record_spec"), "count"),
        f"{hb}.factor_basis_spec_ms": (call_ms(f"{hb}.factor_basis_spec"), "ms"),
        f"{hb}.factor_basis_spec.calls_per_run": (per_run(f"{hb}.factor_basis_spec"), "count"),
        f"{hb}.sample_outcome_ms": (call_ms(f"{hb}.sample_outcome"), "ms"),
        f"{hb}.sample_outcome.calls_per_run": (per_run(f"{hb}.sample_outcome"), "count"),
        f"{hb}.born_distribution_ms": (call_ms(f"{hb}.born_distribution"), "ms"),
        f"{hb}.born_distribution.calls": (per_item_calls(f"{hb}.born_distribution"), "count"),
        f"{rm}.rovelli_run_ms": (call_ms(f"{rm}.rovelli_run"), "ms"),
        f"{rm}.simulate_batch_s": (item_total(f"{rm}.simulate_batch", 1.0), "s"),
        f"{rm}.validate_s": (item_total(f"{rm}.validate", 1.0), "s"),
        f"{rm}.validate.calls": (per_item_calls(f"{rm}.validate"), "count"),
        f"{rm}.empirical_pair_table_s": (item_total(f"{rm}.empirical_pair_table", 1.0), "s"),
        f"{rm}.check_choice_independence_s": (
            item_total(f"{rm}.check_choice_independence", 1.0), "s"),
        f"{rm}.records": (per_item_calls(f"{rm}.RunRecord"), "count"),
        f"{rm}.qualifying_runs_min": (facts["qualifying_runs_min"], "count"),
        f"{rm}.independence_flags": (facts["independence_flags"], "count"),
        "statlab.total_variation_ms": (call_ms("statlab.total_variation"), "ms"),
        "statlab.tv_margin": (facts["tv_margin"], "TV"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
