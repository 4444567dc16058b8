"""Spans around the package's layer entry points, for the traced run only.

A :class:`Tracer` replaces module attributes such as
``gridfreq.network._step`` with wrappers that record (group, start, end,
parent span, rows) and restores them afterwards.  Nothing inside the package
is changed, so an untraced run executes exactly the package's own code.

An entry point that no longer exists (renamed or removed by a refactor) is
listed in ``Tracer.unmeasured``; every metric drawn from its group then
reports 0 instead of a partial figure, and the run goes on.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

#: span group -> the module attributes wrapped for it.  A module imports the
#: functions it calls by name, so each calling module's attribute is wrapped.
ENTRY_POINTS = {
    "cli.build_plan": ("gridfreq.cli:build_plan",),
    "cli.run_plan": ("gridfreq.cli:run_plan",),
    "cli.csv": (
        "gridfreq.cli:write_trace_csv",
        "gridfreq.cli:write_messages_csv",
        "gridfreq.cli:write_mse_csv",
        "gridfreq.cli:write_spectrum_csv",
        "gridfreq.cli:_write_mc_summary",
    ),
    "signals.generate": ("gridfreq.cli:generate_arrays", "gridfreq.network:generate_arrays"),
    "signals.clarke": ("gridfreq.cli:clarke_arrays", "gridfreq.network:clarke_arrays"),
    "estimators.driver": ("gridfreq.cli:run_filter",),
    "estimators.batch_driver": ("gridfreq.cli:run_filter_batch",),
    "estimators.step": ("gridfreq.estimators:_step", "gridfreq.network:_step"),
    "augmented.enforce": ("gridfreq.estimators:enforce_structure",),
    "network.driver": ("gridfreq.cli:run_distributed", "gridfreq.cli:run_distributed_mc"),
    "network.tick": ("gridfreq.network:dfe_tick", "gridfreq.network:_full_state_tick"),
    "network.diffuse": ("gridfreq.network:_diffuse_all",),
    "analysis.mse_step": ("gridfreq.cli:mse_step",),
    "analysis.spectrum": ("gridfreq.cli:error_spectrum",),
}

#: groups whose return values are kept for counting after the run
_KEEP_RESULT = {"network.driver"}

#: metric -> the span groups it is drawn from
_SOURCES = {
    "signals.synth_s": ("signals.generate", "signals.clarke"),
    "signals.calls": ("signals.generate",),
    "augmented.enforce_s": ("augmented.enforce",),
    "augmented.enforce_calls": ("augmented.enforce",),
    "estimators.step_s": ("estimators.step",),
    "estimators.step_calls": ("estimators.step",),
    "estimators.filter_ticks": ("estimators.step",),
    "estimators.rows_per_call": ("estimators.step",),
    "estimators.us_per_filter_tick": ("estimators.step",),
    "estimators.batch_driver_s": ("estimators.batch_driver",),
    "estimators.driver_s": ("estimators.driver",),
    "network.driver_s": ("network.driver",),
    "network.tick_self_s": ("network.tick",),
    "network.diffuse_s": ("network.diffuse",),
    "network.diffuse_calls": ("network.diffuse",),
    "network.tick_us_p50": ("network.tick",),
    "network.tick_us_p99": ("network.tick",),
    "network.messages.to_bridge": ("network.driver",),
    "network.messages.from_bridge": ("network.driver",),
    "network.messages.to_neighbor": ("network.driver",),
    "analysis.mse_step_s": ("analysis.mse_step",),
    "analysis.mse_step_calls": ("analysis.mse_step",),
    "analysis.records_held": ("network.driver",),
    "analysis.spectrum_s": ("analysis.spectrum",),
    "cli.build_plan_s": ("cli.build_plan",),
    "cli.csv_s": ("cli.csv",),
    "cli.run_plan_self_s": ("cli.run_plan",),
}


def _step_rows(args, kwargs) -> int:
    """Filters advanced by one ``_step(model, state, y, ...)`` call."""
    state = args[1] if len(args) > 1 else kwargs["state"]
    return math.prod(np.shape(state.x_hat.top)[:-1])


_ROWS = {"estimators.step": _step_rows}


class Tracer:
    """Wraps the entry points while installed and keeps spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [group, start, end, parent index, rows]
        self.results: list = []  # return values of the _KEEP_RESULT groups
        self.unmeasured: list[str] = []  # "module:attr" entry points not found
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (module, attr, original)
        self._bad_groups: set[str] = set()

    def reset(self) -> None:
        self.spans.clear()
        self.results.clear()

    def install(self) -> None:
        self.unmeasured.clear()
        self._bad_groups.clear()
        for group, targets in ENTRY_POINTS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                try:
                    module = importlib.import_module(mod_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.unmeasured.append(target)
                    self._bad_groups.add(group)
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(group, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, group: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        rows_of = _ROWS.get(group)
        keep = group in _KEEP_RESULT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rows = 0
            if rows_of is not None:
                try:
                    rows = rows_of(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    rows = None
            span = [group, 0.0, 0.0, stack[-1] if stack else -1, rows]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                results.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self) -> dict:
        """Per-layer figures of the spans recorded since the last reset."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        own = dur - child  # nested single-threaded spans: children never overlap

        by_group: dict[str, list[int]] = {g: [] for g in ENTRY_POINTS}
        for i, s in enumerate(self.spans):
            by_group[s[0]].append(i)

        def total(group, times):
            return float(sum(times[i] for i in by_group[group]))

        def calls(group):
            return len(by_group[group])

        step_rows = [self.spans[i][4] for i in by_group["estimators.step"]]
        if None in step_rows:
            self._bad_groups.add("estimators.step")
        filter_ticks = sum(r for r in step_rows if r is not None)
        step_incl = total("estimators.step", dur)
        tick_us = dur[by_group["network.tick"]] * 1e6

        messages = {"to_bridge": 0, "from_bridge": 0, "to_neighbor": 0}
        records = 0
        for run in self.results:
            for m in getattr(run, "messages", None) or ():
                messages[m.phase] = messages.get(m.phase, 0) + 1
            for recs in (getattr(run, "records", None) or {}).values():
                records += len(recs)

        out = {
            "signals.synth_s": total("signals.generate", dur) + total("signals.clarke", dur),
            "signals.calls": calls("signals.generate"),
            "augmented.enforce_s": total("augmented.enforce", dur),
            "augmented.enforce_calls": calls("augmented.enforce"),
            "estimators.step_s": total("estimators.step", own),
            "estimators.step_calls": calls("estimators.step"),
            "estimators.filter_ticks": filter_ticks,
            "estimators.rows_per_call": filter_ticks / max(calls("estimators.step"), 1),
            "estimators.us_per_filter_tick": step_incl / max(filter_ticks, 1) * 1e6,
            "estimators.batch_driver_s": total("estimators.batch_driver", own),
            "estimators.driver_s": total("estimators.driver", own),
            "network.driver_s": total("network.driver", own),
            "network.tick_self_s": total("network.tick", own),
            "network.diffuse_s": total("network.diffuse", dur),
            "network.diffuse_calls": calls("network.diffuse"),
            "network.tick_us_p50": float(np.percentile(tick_us, 50)) if tick_us.size else 0.0,
            "network.tick_us_p99": float(np.percentile(tick_us, 99)) if tick_us.size else 0.0,
            "network.messages.to_bridge": messages["to_bridge"],
            "network.messages.from_bridge": messages["from_bridge"],
            "network.messages.to_neighbor": messages["to_neighbor"],
            "analysis.mse_step_s": total("analysis.mse_step", dur),
            "analysis.mse_step_calls": calls("analysis.mse_step"),
            "analysis.records_held": records,
            "analysis.spectrum_s": total("analysis.spectrum", dur),
            "cli.build_plan_s": total("cli.build_plan", dur),
            "cli.csv_s": total("cli.csv", dur),
            "cli.run_plan_self_s": total("cli.run_plan", own),
            "trace.spans": n,
            "trace.unmeasured": len(self.unmeasured),
        }
        for metric, groups in _SOURCES.items():
            if self._bad_groups.intersection(groups):
                out[metric] = 0
        return out

    def measured(self, group: str) -> bool:
        return group not in self._bad_groups

    def unmeasured_metrics(self) -> list[str]:
        return [m for m, groups in _SOURCES.items() if self._bad_groups.intersection(groups)]
