"""Span recorder for the traced benchmark run.

Every traced function is replaced, for the duration of one traced
iteration, by a wrapper that records a span: id, name, start, end, parent
span and op id (the id of the harness-level call the span belongs to, so all
spans of one request share it). The wrapper is put into the namespace of
every ``swapsched`` module that binds the function, because the modules
import names directly (``inference`` calls its own ``combined_objective``
binding, not ``schedcore.combined_objective``). Methods are patched on their
class. Spans stay in memory; the harness writes them out when the run ends.

Self time is a span's duration minus the durations of its direct children.
All calls are synchronous and single-threaded, so children never overlap and
nothing waits on a queue or another process: wait time is zero by
construction and is not reported.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from collections import defaultdict

# (module, attribute) pairs; "Class.method" patches the class attribute.
# Functions too cheap to wrap without distorting their callers (for example
# check_permutation, swap_inplace, the objective parts under
# combined_objective) are left out.
TRACED = [
    ("schedcore", "combined_objective"),
    ("schedcore", "state_features"),
    ("schedcore", "load_instance"),
    ("operators", "fc_swap_delta"),
    ("operators", "swap"),
    ("baselines", "sa_optimize"),
    ("baselines", "sh_schedule"),
    ("policynet", "forward"),
    ("policynet", "backward"),
    ("policynet", "sample_action"),
    ("policynet", "load_checkpoint"),
    ("policynet", "save_checkpoint"),
    ("policynet", "embed_jobs"),
    ("policynet", "encoder_layer"),
    ("policynet", "pool_and_integrate"),
    ("policynet", "compatibility"),
    ("policynet", "critic_value"),
    ("ppo", "RolloutWorker.collect"),
    ("ppo", "SwapEnv.step"),
    ("ppo", "ppo_update"),
    ("ppo", "ppo_loss_and_grads"),
    ("ppo", "Adam.step"),
    ("ppo", "compute_gae"),
    ("inference", "multirun"),
    ("inference", "multipolicy"),
    ("inference", "run_episode"),
    ("bench", "run_benchmark"),
    ("bench", "load_pool"),
    ("bench", "generate_instances"),
    ("bench", "brute_force_best"),
    ("cli", "main"),
]


def span_names() -> list[str]:
    """Every span name the tracer can emit, in report order."""
    names = []
    for module, attr in TRACED:
        if (module, attr) == ("policynet", "forward"):
            names += ["policynet.forward.b1", "policynet.forward.batched"]
        else:
            names.append(f"{module}.{attr}")
    return names


class _CountRecords(logging.Handler):
    def __init__(self, counts: dict, key: str):
        super().__init__()
        self.counts, self.key = counts, key

    def emit(self, record):
        self.counts[self.key] += 1


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, self_s)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._op = -1
        self._undo: list[tuple] = []
        self._handler = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_return=None, namer=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            label = namer(args, kwargs) if namer else name
            sid = self._next_id
            self._next_id += 1
            if not stack:
                self._op += 1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                spans.append((sid, label, frame[1], end,
                              parent[0] if parent else -1, self._op, dur - frame[2]))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _hooks(self, module, attr):
        counts = self.counts
        if (module, attr) == ("policynet", "forward"):
            def namer(args, kwargs):
                per_job = args[2] if len(args) > 2 else kwargs["per_job"]
                per_job = getattr(per_job, "per_job", per_job)  # FeatureMatrix
                if getattr(per_job, "ndim", 2) == 3:
                    counts["policynet.forward.batched.rows"] += per_job.shape[0]
                    return "policynet.forward.batched"
                return "policynet.forward.b1"
            return None, namer
        if (module, attr) == ("baselines", "sa_optimize"):
            def on_return(args, kwargs, res):
                counts["baselines.sa_optimize.accepted"] += res.accepted
                counts["baselines.sa_optimize.steps"] += res.steps
            return on_return, None
        if (module, attr) == ("inference", "multirun"):
            def on_return(args, kwargs, res):
                counts["inference.runs"] += len(res.per_run_fc)
                counts["inference.improved_runs"] += sum(fc > 0 for fc in res.per_run_fc)
            return on_return, None
        if (module, attr) == ("bench", "brute_force_best"):
            def on_return(args, kwargs, res):
                counts["bench.brute_force_best.perms"] += math.factorial(args[0].n_jobs)
            return on_return, None
        return None, None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function in every ``swapsched`` namespace."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "swapsched" or n.startswith("swapsched."))]
        for module, attr in TRACED:
            owner = sys.modules[f"swapsched.{module}"]
            name = f"{module}.{attr}"
            on_return, namer = self._hooks(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, on_return, namer))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, on_return, namer)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        self._handler = _CountRecords(self.counts, "schedcore.exp_clamp_warnings")
        logging.getLogger("swapsched.schedcore").addHandler(self._handler)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()
        if self._handler is not None:
            logging.getLogger("swapsched.schedcore").removeHandler(self._handler)
            self._handler = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """``{name: (calls, self seconds, wall seconds)}`` over recorded spans."""
        out = {name: [0, 0.0, 0.0] for name in span_names()}
        for _sid, name, start, end, _parent, _op, self_s in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += self_s
            agg[2] += end - start
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            t0 = min((s[2] for s in self.spans), default=0.0)
            for sid, name, start, end, parent, op, _ in sorted(self.spans):
                fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")
