"""Span tracer installed from outside the program.

Wraps the public functions of the traced lowresbf modules at every
module-level name that refers to them (txchain, for example, imports
ofdm_modulate by name), records one span per call in memory and
derives self times, call counts and per-layer counters from them.
"""

import contextlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "lowresbf"
TRACED_MODULES = ("network", "ofdm", "quantizer", "txchain", "cli")
ROOT = "trace.root"


def _sdma_evals(args, result):
    # schedule_sdma_greedy: one seed evaluation, then one per remaining
    # candidate in each admission round; a round that admits nobody ends it
    n, g, cap = len(args[3]), len(result), args[4].n_beams_max
    if n == 0:
        return 0
    rounds = g - 1 if (g >= cap or g >= n) else g
    return 1 + sum(n - k for k in range(1, rounds + 1))


def _observe_drop(counts, args, result):
    counts["network.active_ues"] += len({r.ue_index for r in result.ue_results})
    counts["beam_groups"] += len(result.beam_counts)
    counts["beam_sum"] += int(result.beam_counts.sum())


def _observe_layout(counts, args, result):
    pl = result.pathloss_db
    counts["links"] += pl.size
    counts["links_nonoutage"] += int((pl != float("inf")).sum())


# per-function hooks: (counters, call args, return value) -> None
OBSERVERS = {
    "network.run_drop_detailed": _observe_drop,
    "network.generate_layout": _observe_layout,
    "network.schedule_sdma_greedy":
        lambda c, a, r: c.update({"network.sdma_candidate_evals": _sdma_evals(a, r)}),
    # infinite resolution hands the input block back untouched: no work done
    "quantizer.quantize":
        lambda c, a, r: c.update({"quantizer.quantize.samples": 0 if r is a[0] else r.samples.size}),
    "ofdm.ofdm_modulate": lambda c, a, r: c.update({"ofdm.ofdm_modulate.samples": r.samples.size}),
    "txchain.dac_convert": lambda c, a, r: c.update({"txchain.dac_convert.samples_out": r.samples.size}),
}


class Tracer:
    """Spans are (name, start, end, parent index, run id); -1 marks no parent."""

    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.counts = Counter()
        self.run_id = 0
        self._stack = [-1]
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, errors, counts = self.spans, self._stack, self.errors, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
            if observe is not None:
                observe(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = {k: m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}
        for short in TRACED_MODULES:
            owner = mods[f"{PACKAGE}.{short}"]
            names = getattr(owner, "__all__", None) or [n for n in vars(owner) if not n.startswith("_")]
            for attr in names:
                fn = getattr(owner, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == owner.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            self._patches.append((mod, key, fn))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, run_id):
        """Root span of one pass; spans recorded inside it carry run_id."""
        self.run_id = run_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (ROOT, t0, time.perf_counter(), -1, run_id)

    def summarize(self, n_runs):
        """Per-run self times, call counts, per-call durations and counters."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = Counter()
        durations = defaultdict(list)
        for i, (name, t0, t1, _p, _r) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
            calls[name] += 1
            durations[name].append(t1 - t0)
        return {
            "self_s": {k: v / n_runs for k, v in self_s.items()},
            "calls": {k: v / n_runs for k, v in calls.items()},
            "durations": durations,
            "counts": {k: v / n_runs for k, v in self.counts.items()},
            "errors": dict(self.errors),
        }

    def write(self, path):
        with open(path, "w") as f:
            f.write("name,start,end,parent,run\n")
            for name, t0, t1, parent, run in self.spans:
                f.write(f"{name},{t0!r},{t1!r},{parent},{run}\n")

