"""Span tracing around cdckit's layer entry points, installed from outside.

Nothing here edits cdckit's source: `instrument` swaps each public call the
CLI path reaches for a wrapper that records a span, and restores the
originals when the `with` block ends.  A name is swapped where it is looked
up at run time, so a function imported with `from .x import f` is wrapped in
the importing module and a method is wrapped on its class.

A span is (id, parent id, command id, thread id, name, start, end).  Spans
are kept in memory; `write` stores them as one line each.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name, counters).  Each counter is (name, f) and
# adds f(args, result) to `Tracer.counts()` when the call returns.
_FUNCS = (
    ("cdckit.pipeline", "parse_verilog", "verilog.parse",
     (("verilog.lines", lambda a, r: a[0].count("\n")),)),
    ("cdckit.pipeline", "elaborate", "elaborate",
     (("elaborate.cells", lambda a, r: len(r.cells)),
      ("elaborate.nets", lambda a, r: len(r.nets)))),
    ("cdckit.pipeline", "assign_domains", "domains.assign", ()),
    ("cdckit.pipeline", "extract_cdc_pairs", "domains.pairs",
     (("domains.pairs", lambda a, r: len(r)),)),
    ("cdckit.pipeline", "extract_rdc_pairs", "domains.pairs", ()),
    ("cdckit.pipeline", "recognize", "syncrec.recognize",
     (("syncrec.syncs", lambda a, r: len(r)),)),
    ("cdckit.pipeline", "classify_pairs", "syncrec.classify", ()),
    ("cdckit.pipeline", "run_structural", "rules",
     (("rules.findings", lambda a, r: len(r)),)),
    ("cdckit.cli", "generate_all", "codegen.generate",
     (("codegen.bytes", lambda a, r: sum(len(f.text.encode()) for f in r)),)),
    ("cdckit.cli", "lint_generated", "codegen.lint", ()),
    ("cdckit.cli", "build_checkers", "checkers.build", ()),
    ("cdckit.cli", "simulate", "sim.run", ()),
    ("cdckit.cli", "explore_exhaustive", "explore",
     (("explore.branches", lambda a, r: r.branches),)),
    ("cdckit.cli", "merge", "coverage.merge", ()),
    ("cdckit.cli", "write_vcd", "vcd.write", ()),
)

# (module, class, method, span name, counters); `args` includes self.
_METHODS = (
    ("cdckit.sim", "Engine", "__init__", "sim.engine_init", ()),
    ("cdckit.sim", "Engine", "initial_state", "sim.engine_init", ()),
    ("cdckit.sim", "Engine", "plan_tick", "sim.plan_tick",
     (("sim.opportunities", lambda a, r: len(r.opps)),)),
    ("cdckit.sim", "Engine", "commit_tick", "sim.commit_tick",
     (("sim.injections", lambda a, r: sum(a[3])),)),
)

# Counters that are the number of spans of one name.
SPAN_COUNTS = {"sim.ticks": "sim.plan_tick", "checkers.samples": "checkers.sample"}


class Tracer:
    """Collects spans and counters; `cmd` and `root` are set per command."""

    def __init__(self):
        self.spans: list[tuple] = []
        # (counter, amount); list.append is atomic, so seed-pool threads can
        # add to it without a lock
        self.tallies: list[tuple[str, int]] = []
        self.cmd = -1
        self.root = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, counters=()):
        spans, tallies, ids, local = self.spans, self.tallies, self._ids, self._local
        clock, ident = time.perf_counter, threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else tracer.root
            cmd = tracer.cmd
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, cmd, ident(), name, start, end))
            for key, f in counters:
                tallies.append((key, f(args, result)))
            return result

        return traced

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for key, amount in self.tallies:
            out[key] += amount
        for key, name in SPAN_COUNTS.items():
            out[key] = sum(1 for s in self.spans if s[4] == name)
        return dict(out)

    @contextmanager
    def command(self, cmd_id: int):
        """Root span "cli" around one CLI command on the calling thread."""
        sid = next(self._ids)
        self.cmd, self.root = cmd_id, sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append((sid, -1, cmd_id, threading.get_ident(), "cli",
                               start, end))
            self.cmd, self.root = -1, -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tcmd\tthread\tname\tstart\tend\n")
            for s in sorted(self.spans, key=lambda s: s[0]):
                f.write("\t".join(map(str, s)) + "\n")


def _checker_classes():
    import cdckit.checkers as ck
    return [c for c in vars(ck).values()
            if isinstance(c, type) and issubclass(c, ck.Checker)
            and "sample" in vars(c)]


@contextmanager
def instrument(tracer: Tracer):
    import importlib
    saved = []
    try:
        for mod_name, attr, name, counters in _FUNCS:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, counters))
        for mod_name, cls_name, meth, name, counters in _METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            saved.append((cls, meth, vars(cls)[meth]))
            setattr(cls, meth, tracer.wrap(vars(cls)[meth], name, counters))
        for cls in _checker_classes():
            saved.append((cls, "sample", vars(cls)["sample"]))
            cls.sample = tracer.wrap(vars(cls)["sample"], "checkers.sample")
        yield tracer
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def self_times(spans) -> dict[int, float]:
    """Self time per span id.

    Within one thread spans nest, so a span's self time is its duration
    minus its children's.  When a command's spans run on several threads
    (the simulate seed pool), time is attributed by a sweep: at each instant
    the innermost open span of each thread is busy, except a span whose
    child on another thread is open, and the instant is split equally among
    the busy spans.  Either way the self times of a command sum to its root
    span's duration.
    """
    by_cmd = defaultdict(list)
    for s in spans:
        by_cmd[s[2]].append(s)
    out: dict[int, float] = {}
    for cmd_spans in by_cmd.values():
        if len({s[3] for s in cmd_spans}) == 1:
            child = defaultdict(float)
            for sid, parent, _c, _t, _n, start, end in cmd_spans:
                child[parent] += end - start
            for sid, _p, _c, _t, _n, start, end in cmd_spans:
                out[sid] = end - start - child[sid]
        else:
            out.update(_sweep(cmd_spans))
    return out


def _sweep(cmd_spans) -> dict[int, float]:
    thread_of = {s[0]: s[3] for s in cmd_spans}
    events = []
    for sid, parent, _c, thread, _n, start, end in cmd_spans:
        events.append((start, 1, sid, parent, thread))
        events.append((end, 0, sid, parent, thread))
    events.sort()
    acc = defaultdict(float)
    stacks: dict[int, list[int]] = defaultdict(list)
    foreign_open = defaultdict(int)
    last = events[0][0]
    for t, is_open, sid, parent, thread in events:
        busy = [st[-1] for st in stacks.values()
                if st and not foreign_open[st[-1]]]
        if busy and t > last:
            share = (t - last) / len(busy)
            for b in busy:
                acc[b] += share
        last = t
        foreign = parent in thread_of and thread_of[parent] != thread
        if is_open:
            stacks[thread].append(sid)
            if foreign:
                foreign_open[parent] += 1
        else:
            stacks[thread].remove(sid)
            if foreign:
                foreign_open[parent] -= 1
    return {s[0]: acc[s[0]] for s in cmd_spans}
