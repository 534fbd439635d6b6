"""Spans around the library's layers, recorded from outside the library.

Tracer.install() replaces each public function named in LAYERS, in every
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent, phase) plus a few counts taken from the call's
arguments and result.  Spans stay in memory; `summarize` turns the spans of
one phase into the per-layer figures at the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# computed bytes per swept triple on the numpy path: the n x n int64 arrays
# each row block gathers (r2: 2, exchange: 6, ybe: 12 gathers + 3 index grids)
SWEEP_BYTES_PER_TRIPLE = {"kernels.r2": 16, "kernels.exchange": 48, "kernels.ybe": 120}


def _swept(n, witness):
    """Triples the row-blocked sweep touched: full rows up to the witness row."""
    if witness is None:
        return n**3
    row = witness[1] if len(witness) == 4 else witness[0]
    return (row + 1) * n * n


def _note_sweep(args, witness):
    return {"triples": _swept(args[0].shape[0], witness)}


# (module, attribute, span name, note on (args, result)); a class attribute
# is given as "Class.attr"
LAYERS = (
    ("_kernels", "r2_violation", "kernels.r2", _note_sweep),
    ("_kernels", "exchange_violation", "kernels.exchange", _note_sweep),
    ("_kernels", "ybe_violation", "kernels.ybe", _note_sweep),
    ("_kernels", "closure_extend", "kernels.closure", lambda a, out: {"ok": int(bool(out))}),
    ("_search", "table_bijections", "search.bijections", lambda a, out: {"found": len(out)}),
    ("automorphisms", "quandle_aut", "automorphisms.aut", None),
    ("automorphisms", "biquandle_aut", "automorphisms.aut", None),
    ("core", "PermutationGroup.from_elements", "core.perm_group", None),
    ("core", "PermutationGroup.generate", "core.perm_group", None),
    ("core", "FiniteQuandle.__init__", "core.construct", None),
    ("core", "FiniteBiquandle.__init__", "core.construct", None),
    ("core", "check_ybe", "core.check_ybe", None),
    ("groups", "automorphism_group", "groups.aut_group", None),
    ("enumeration", "enumerate_quandles", "enumeration.enum", lambda a, out: {"tables": len(out)}),
    ("enumeration", "are_isomorphic", "enumeration.iso", lambda a, out: {"true": int(out is not None)}),
    ("links", "parse_diagram", "links.parse", None),
    ("links", "coloring_count_biquandle", "links.color", lambda a, out: {"colorings": out}),
    ("links", "coloring_count_quandle", "links.color", lambda a, out: {"colorings": out}),
    ("combinators", "holomorph_biquandle", "combinators.construct", None),
    ("combinators", "semidirect_biquandle", "combinators.construct", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    phase: object
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans for the wrapped layers while installed and not paused."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._patches = []
        self._paused = False

    def wrap(self, fn, name, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span = Span(name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.phase)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if note is not None:
                span.counts = note(args, out)
            return out

        return traced

    def install(self, extra=()):
        """Wrap every LAYERS entry, plus (module, attr, name, note) in extra."""
        for mod_name, attr, name, note in LAYERS:
            owner = sys.modules[f"biquandles.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, name, note)
        for owner, attr, name, note in extra:
            self._patch(owner, attr, name, note)

    def _patch(self, owner, attr, name, note):
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = self.wrap(fn, name, note)
        if isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(wrapped))
            return
        # every module that imported the function by name gets the wrapper too
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or mod_name.split(".")[0] == "biquandles":
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped)
        if vars(owner).get(attr) is fn:
            self._set(owner, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False


# ---------------------------------------------------------------------------
# per-layer figures

# metric -> (span names, what); counts are summed over outermost spans
COUNT_METRICS = {
    "kernels.r2_calls": ("kernels.r2", "calls"),
    "kernels.exchange_calls": ("kernels.exchange", "calls"),
    "kernels.ybe_calls": ("kernels.ybe", "calls"),
    "kernels.closure_calls": ("kernels.closure", "calls"),
    "search.bijection_calls": ("search.bijections", "calls"),
    "search.bijections_found": ("search.bijections", "found"),
    "automorphisms.aut_calls": ("automorphisms.aut", "calls"),
    "groups.aut_group_calls": ("groups.aut_group", "calls"),
    "enumeration.tables_out": ("enumeration.enum", "tables"),
    "enumeration.iso_calls": ("enumeration.iso", "calls"),
    "core.construct_calls": ("core.construct", "calls"),
    "core.reject_calls": ("core.construct", "errors"),
    "core.check_ybe_calls": ("core.check_ybe", "calls"),
    "links.parse_calls": ("links.parse", "calls"),
    "links.color_calls": ("links.color", "calls"),
    "links.colorings_total": ("links.color", "colorings"),
    "cli.invocations": ("cli.process", "calls"),
    "cli.stdout_bytes": ("cli.process", "stdout_bytes"),
}
# raw counts that only feed ratios
RAW_COUNTS = {
    "closure_ok": ("kernels.closure", "ok"),
    "iso_true": ("enumeration.iso", "true"),
    "triples.kernels.r2": ("kernels.r2", "triples"),
    "triples.kernels.exchange": ("kernels.exchange", "triples"),
    "triples.kernels.ybe": ("kernels.ybe", "triples"),
}
# metric -> (span names, "busy" | "self")
TIME_METRICS = {
    "kernels.r2_s": (("kernels.r2",), "busy"),
    "kernels.exchange_s": (("kernels.exchange",), "busy"),
    "kernels.ybe_s": (("kernels.ybe",), "busy"),
    "kernels.closure_s": (("kernels.closure",), "busy"),
    "search.bijection_s": (("search.bijections",), "busy"),
    "search.self_s": (("search.bijections",), "self"),
    "automorphisms.aut_s": (("automorphisms.aut",), "busy"),
    "automorphisms.self_s": (("automorphisms.aut",), "self"),
    "core.perm_group_s": (("core.perm_group",), "busy"),
    "groups.aut_group_s": (("groups.aut_group",), "busy"),
    "enumeration.enum_s": (("enumeration.enum",), "busy"),
    "enumeration.iso_s": (("enumeration.iso",), "busy"),
    "core.construct_s": (("core.construct",), "busy"),
    "core.check_ybe_s": (("core.check_ybe",), "busy"),
    "links.parse_s": (("links.parse",), "busy"),
    "links.color_s": (("links.color",), "busy"),
    "links.self_s": (("links.parse", "links.color"), "self"),
    "combinators.construct_s": (("combinators.construct",), "busy"),
    "cli.process_s": (("cli.process",), "busy"),
}


def summarize(spans, phase):
    """Counts and busy/self times of the spans recorded in one phase.

    A span is outermost when no ancestor has its name; calls and busy time
    come from outermost spans only, so a layer calling itself is counted
    once.  Self time is span time minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    outer = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        outer[i] = p < 0
    counts, busy, self_time = {}, {}, {}
    for i, s in enumerate(spans):
        if s.phase != phase:
            continue
        self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start) - child_time[i]
        if not outer[i]:
            continue
        c = counts.setdefault(s.name, {})
        c["calls"] = c.get("calls", 0) + 1
        c["errors"] = c.get("errors", 0) + int(s.error)
        for k, v in s.counts.items():
            c[k] = c.get(k, 0) + v
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
    out = {}
    for metric, (name, what) in {**COUNT_METRICS, **RAW_COUNTS}.items():
        out[metric] = counts.get(name, {}).get(what, 0)
    for metric, (names, what) in TIME_METRICS.items():
        source = busy if what == "busy" else self_time
        out[metric] = sum(source.get(n, 0.0) for n in names)
    return out


def layer_metrics(setup, rounds):
    """Per-layer figures for set-up plus one round of the job list.

    setup and rounds are summarize() results; counts take the first round,
    times the median round.
    """
    first = rounds[0]
    m = {k: setup[k] + first[k] for k in {**COUNT_METRICS, **RAW_COUNTS}}
    for k in TIME_METRICS:
        m[k] = setup[k] + statistics.median(r[k] for r in rounds)
    triples = {name: m.pop(f"triples.{name}") for name in SWEEP_BYTES_PER_TRIPLE}
    m["kernels.sweep_triples"] = sum(triples.values())
    m["kernels.sweep_bytes_computed"] = sum(t * SWEEP_BYTES_PER_TRIPLE[n] for n, t in triples.items())
    ok, true = m.pop("closure_ok"), m.pop("iso_true")
    m["kernels.closure_ok_ratio"] = ok / m["kernels.closure_calls"] if m["kernels.closure_calls"] else 0.0
    calls = m["search.bijection_calls"]
    m["search.closures_per_call"] = m["kernels.closure_calls"] / calls if calls else 0.0
    m["enumeration.iso_true_ratio"] = true / m["enumeration.iso_calls"] if m["enumeration.iso_calls"] else 0.0
    return m


def repeat_counts(rnd):
    """The work counters of one round that must repeat exactly."""
    return {k: rnd[k] for k in {**COUNT_METRICS, **RAW_COUNTS}}
