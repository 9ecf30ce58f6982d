"""Call counts and span times at the program's module boundaries.

The traced run replaces public functions by timing wrappers in every
`riskaudit` module that holds them, as the importing modules see them (for
example `riskaudit.audit.derived_stats` and `riskaudit.sweep.audit_approx`),
and puts the originals back afterwards. No file of the program is edited.
Spans are aggregated in memory as they close: calls and inclusive time per
name.
"""
from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (defining module, function): the public functions whose per-call figures
# are reported, plus the sweep's candidate draws, which have no public name;
# searches and equation checks are timed whole by the workloads
TRACED = (
    ("model", "validate_instance"),
    ("model", "derived_stats"),
    ("model", "assignment_rows_for"),
    ("audit", "bin_statistics"),
    ("audit", "audit_exact"),
    ("audit", "audit_approx"),
    ("audit", "classify_consequence"),
    ("audit", "passes_fairness"),
    ("loss", "loss"),
    ("loss", "is_nontrivial"),
    ("solver", "assignment_from_partition"),
    ("sweep", "_pooled_struct"),
    ("sweep", "_split_structure"),
    ("sweep", "_banded_bins"),
    ("reduction", "reduce_subset_sum"),
    ("reduction", "search_normal_forms"),
    ("serialize", "parse_instance"),
    ("serialize", "parse_assignment"),
    ("serialize", "parse_reduced"),
    ("serialize", "dumps_doc"),
)

CANDIDATE_DRAWS = ("sweep._pooled_struct", "sweep._split_structure", "sweep._banded_bins")


class Tracer:
    """Aggregated spans. With `enabled` false a span costs one generator step
    and records nothing. Wrapped calls count only inside a span, so the result
    checks made between operations stay out of the figures."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.active = False
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _close(self, name: str, dt: int) -> None:
        self.calls[name] += 1
        self.ns[name] += dt

    @contextmanager
    def span(self, name: str):
        """A span in the benchmark's own code, around one operation."""
        if not self.enabled:
            yield
            return
        outer = self.active
        self.active = True
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, perf_counter_ns() - t0)
            self.active = outer

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, perf_counter_ns() - t0)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "riskaudit" or n.startswith("riskaudit.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"riskaudit.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def snapshot(self) -> tuple[Counter, Counter]:
        return Counter(self.calls), Counter(self.ns)

    def mean_us(self, name: str) -> float:
        """Mean inclusive time per call; 0 when the function was never called
        (or no longer exists)."""
        return self.ns[name] / self.calls[name] / 1e3 if self.calls[name] else 0.0

    def count(self, name: str, since=None) -> int:
        return self.calls[name] - (since[0][name] if since is not None else 0)
