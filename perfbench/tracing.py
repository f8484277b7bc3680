"""Spans and counters around polyadic's public functions, from outside.

`Tracer.install()` replaces each listed function with a wrapper in every
`polyadic` module that binds the same function object (so
`cover.validate_group` and `groups.validate_group` are both traced), and
`uninstall()` puts the originals back. The untraced benchmark never
installs anything.

A span is (name, start, end, parent). Self time is a span's duration
minus its child spans and minus the time of timed counters called
directly inside it. Fine-grained functions get counters instead of
spans: `skew_search` is only counted, and `eval_term` (its bindings in
`geometry` only, so the recursion inside `terms` is not counted) is
counted and timed.
"""

import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name, sizes(args, kwargs, result) -> dict or None)
SPANS = (
    ("groups", "validate_group", "groups.validate_group",
     lambda a, kw, out: {"cells": len(a[0]) ** 3}),
    ("groups", "subgroups", "groups.subgroups", None),
    ("groups", "enumerate_homs", "groups.enumerate_homs", None),
    ("groups", "are_isomorphic", "groups.are_isomorphic", None),
    ("groups", "subgroup_closure", "groups.subgroup_closure", None),
    ("core", "verify_axioms", "core.verify_axioms",
     lambda a, kw, out: {"tuples": a[0].order ** (2 * a[0].n - 1)}),
    ("core", "dornte_check", "core.dornte_check", None),
    ("core", "hosszu_gloskin", "core.hosszu_gloskin", None),
    ("core", "retract", "core.retract", None),
    ("core", "polyadic_subgroups", "core.polyadic_subgroups", None),
    ("core", "polyadic_homs", "core.polyadic_homs", None),
    ("cover", "coset_enumerate", "cover.coset_enumerate",
     lambda a, kw, out: {"order": out.order}),
    ("cover", "build_post_cover", "cover.build_post_cover", None),
    ("cover", "presentation_to_group", "cover.presentation_to_group", None),
    ("geometry", "solve", "geometry.solve",
     lambda a, kw, out: {"points": a[0].order ** a[1].m, "hits": len(out.points)}),
    ("geometry", "coordinate_group", "geometry.coordinate_group",
     lambda a, kw, out: {"elements": out.order}),
    ("geometry", "CoordinateGroup.as_polyadic", "geometry.CoordinateGroup.as_polyadic", None),
    ("geometry", "TermFunctions.__init__", "geometry.TermFunctions",
     lambda a, kw, out: {"functions": len(a[0].functions)}),
    ("geometry", "TermFunctions.closure", "geometry.TermFunctions.closure", None),
    ("geometry", "TermFunctions.irreducible", "geometry.TermFunctions.irreducible", None),
    ("geometry", "minimal_subsystem", "geometry.minimal_subsystem", None),
    ("geometry", "theorem63_check", "geometry.theorem63_check", None),
    ("terms", "parse_equation", "terms.parse_equation", None),
    ("terms", "parse_term", "terms.parse_term", None),
    ("words", "parse_word", "words.parse_word", None),
    ("fileio", "load_json", "fileio.load_json", None),
    ("fileio", "polyadic_from_doc", "fileio.polyadic_from_doc", None),
    ("fileio", "system_from_doc", "fileio.system_from_doc", None),
    ("cli", "main", "cli.main", None),
)

# (module, attribute, counter name, timed, only this module's binding)
COUNTERS = (
    ("core", "skew_search", "core.skew_search", False, False),
    ("geometry", "eval_term", "terms.eval_term", True, True),
)

# span name -> size key whose log-log slope against time is `growth`
GROWTH = {
    "core.verify_axioms": "tuples",
    "cover.coset_enumerate": "order",
    "geometry.solve": "points",
    "geometry.coordinate_group": "elements",
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, sizes, counter_time]
        self.stack = []
        self.counts = defaultdict(int)
        self.counter_time = defaultdict(float)
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {k[len("polyadic."):]: m for k, m in sys.modules.items()
                if k.startswith("polyadic.")}
        for mod, attr, name, sizes in SPANS:
            self._patch(mods, mod, attr, self._span(name, sizes), False)
        for mod, attr, name, timed, local in COUNTERS:
            self._patch(mods, mod, attr, self._counter(name, timed), local)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _patch(self, mods, mod, attr, make, local):
        if "." in attr:
            cls, meth = attr.split(".")
            owner = getattr(mods[mod], cls)
            original = owner.__dict__[meth]
            self._saved.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(mods[mod], attr)
        wrapper = make(original)
        owners = [mods[mod]] if local else list(mods.values()) + [sys.modules["polyadic"]]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, key, original))
                    setattr(owner, key, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, sizes):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
                spans.append(rec)
                stack.append(len(spans) - 1)
                rec[1] = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
                if sizes is not None:
                    rec[4] = sizes(args, kwargs, out)
                return out
            return wrapper
        return make

    def _counter(self, name, timed):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        total = self.counter_time

        def make(fn):
            if not timed:
                def counted(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
                return counted

            def timed_counter(*args, **kwargs):
                counts[name] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    total[name] += dt
                    if stack:
                        spans[stack[-1]][5] += dt
            return timed_counter
        return make

    # -- read-out -----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.counter_time.clear()

    def summary(self):
        """Per-name calls, self time and summed sizes for the spans so far,
        plus (size, duration) samples for growth fits."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "sizes": defaultdict(float),
                                   "samples": []})
        for i, rec in enumerate(self.spans):
            name, start, end, _, sizes, hidden = rec
            s = out[name]
            s["calls"] += 1
            s["self_s"] += (end - start) - child[i] - hidden
            if sizes:
                for k, v in sizes.items():
                    s["sizes"][k] += v
                key = GROWTH.get(name)
                if key:
                    s["samples"].append((sizes[key], end - start))
        for name, n in self.counts.items():
            out[name]["calls"] = n
            out[name]["self_s"] = self.counter_time.get(name, 0.0)
        return out


def write_spans(path, passes):
    """One JSON line per span; `parent` indexes the span list of its pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, recs in enumerate(passes):
            for rec in recs:
                fh.write(json.dumps({"pass": i, "name": rec[0], "start": rec[1],
                                     "end": rec[2], "parent": rec[3]}) + "\n")


def growth(samples):
    """Least-squares slope of log(time) on log(size); 0.0 when fewer than
    two distinct sizes were seen."""
    pts = [(math.log(s), math.log(t)) for s, t in samples if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
