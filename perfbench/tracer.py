"""Per-module call tracing, applied to the cgnn package from outside.

A Tracer replaces the public functions of each traced module, wherever a
cgnn module namespace binds them, with wrappers that record the inclusive
time and call count of every function and the self time of every module:
the time inside the module's public calls minus the time spent in nested
calls into other modules. A call into the module that is already on top
of the stack (predict_batch -> forward_batch -> prepare_batch) still gets
its own inclusive time but counts once towards the module's self time.

Small accessors called millions of times (GraphState.neighbors,
feature_row, label) are left unwrapped; their time falls to the module
that calls them.
"""

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "synth", "detect", "model", "ewc", "memory", "train",
          "harness")

# Functions traced under a name of their own besides the modules' public
# module-level functions: (module, owner attribute or None, attribute,
# metric name).
_EXTRA = (
    ("graph", "GraphState", "apply_delta", "apply_delta"),
    ("train", None, "_checkpoint", "checkpoint"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _admissions(args, kwargs, out):
    before = _arg(args, kwargs, 0, "mem")
    kept = {id(e) for entries in before.entries.values() for e in entries}
    return {
        "memory.offered": len(set(_arg(args, kwargs, 1, "candidates"))),
        "memory.admitted": sum(1 for entries in out.entries.values()
                               for e in entries if id(e) not in kept),
    }


# Work counts recorded at the call boundary: function -> callable of
# (args, kwargs, return value) giving {count name: amount}.
_COUNTERS = {
    "graph.l_hop_set": lambda a, k, out: {"graph.ball_nodes": len(out)},
    "graph.freeze_ego": lambda a, k, out: {"graph.ego_nodes": len(out.nodes)},
    "model.prepare_batch": lambda a, k, out: {
        "model.plan_rows": sum(len(rows) for rows in out.keys)},
    "model.predict_batch": lambda a, k, out: {"model.predict_rows": len(out)},
    "ewc.estimate_fisher": lambda a, k, out: {
        "ewc.fisher_examples": _arg(a, k, 1, "mem").size},
    "memory.update_memory": _admissions,
    "memory.replay_batch": lambda a, k, out: {
        "memory.replay_entries": len(out)},
}


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit.

    seconds[f] and calls[f] hold the inclusive time and the call count of
    function f ("model.prepare_batch"), busy[m] the self time of module m,
    counts[c] the work counts of _COUNTERS.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self._stack = []
        self._undo = []

    def _wrap(self, layer, name, fn):
        key = "%s.%s" % (layer, name)
        count = _COUNTERS.get(key)
        stack = self._stack
        busy = self.busy
        seconds = self.seconds
        calls = self.calls
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            own = not stack or stack[-1][0] != layer
            if own:
                frame = [layer, 0.0]
                stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if own:
                    stack.pop()
                    busy[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                seconds[key] += elapsed
                calls[key] += 1
            if count is not None:
                for what, amount in count(args, kwargs, out).items():
                    counts[what] += amount
            return out

        return traced

    def _targets(self):
        """(layer, metric name, owner object, attribute) for every wrapper."""
        for layer in LAYERS:
            mod = sys.modules["cgnn." + layer]
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    yield layer, attr, mod, attr
        for layer, owner, attr, name in _EXTRA:
            mod = sys.modules["cgnn." + layer]
            yield layer, name, getattr(mod, owner) if owner else mod, attr

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "cgnn" or n.startswith("cgnn.")]
        for layer, name, owner, attr in self._targets():
            fn = getattr(owner, attr)
            wrapper = self._wrap(layer, name, fn)
            sites = [owner] if inspect.isclass(owner) else [
                m for m in namespaces if vars(m).get(attr) is fn]
            for site in sites:
                self._undo.append((site, attr, fn))
                setattr(site, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            site, attr, fn = self._undo.pop()
            setattr(site, attr, fn)
        return False
