"""Stimulus files: line-oriented port drives plus a run length.

    at <clock> <edge#> set <port> <value>
    random -ports <p1,p2,...> -p <prob> -seed <int>
    run <edges> of <clock>

`at` applies the value at the tick of that clock's posedge, before flops
evaluate, so a flop clocked at the same tick captures the new value.
`random` toggles each listed port with probability `-p` at every tick,
drawn from the simulation seed's RNG; `-seed` is checked but not used.
Exactly one `run` directive is required; simulation covers every clock edge
up to and including the run clock's last requested posedge.  Those edges,
summed over the declared clocks, may number at most `MAX_RUN_EDGES`
(`run_clock_edges`, which the engine calls once the constraints give the
clocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import ClockSpec, parse_int, take_flag
from .errors import ParseError


@dataclass(slots=True, unsafe_hash=True)
class SetDirective:
    clock: str
    edge: int
    port: str
    value: int


@dataclass(slots=True, unsafe_hash=True)
class RandomDriver:
    ports: tuple[str, ...]
    probability: float


# the most clock edges a run may imply, summed over the clocks: the engine
# keeps a few hundred bytes per edge tick before it simulates one
MAX_RUN_EDGES = 1_000_000


@dataclass
class Stimulus:
    sets: list[SetDirective] = field(default_factory=list)
    random: RandomDriver | None = None
    run_clock: str = ""
    run_edges: int = 0
    run_line: int = 0               # the line of the `run` directive
    origin: str = "<stimulus>"


def parse_stimulus(text: str, origin: str = "<stimulus>") -> Stimulus:
    st = Stimulus(origin=origin)
    last_edge: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "at":
            if len(parts) != 6 or parts[3] != "set":
                raise ParseError("expected: at <clock> <edge#> set <port> <value>",
                                 line_no, 0, origin)
            clock, edge, port, value = parts[1], parts[2], parts[4], parts[5]
            try:
                edge_i = int(edge)
                value_i = int(value, 0)
            except ValueError:
                raise ParseError("edge and value must be integers", line_no, 0, origin)
            if edge_i < 0:
                raise ParseError("edge index must be >= 0", line_no, 0, origin)
            if edge_i < last_edge.get(clock, 0):
                raise ParseError(f"edge indices for {clock!r} must be non-decreasing",
                                 line_no, 0, origin)
            last_edge[clock] = edge_i
            st.sets.append(SetDirective(clock, edge_i, port, value_i))
        elif parts[0] == "random":
            rest = parts[1:]
            ports = tuple(take_flag(rest, "-ports", line_no, origin).split(","))
            p = take_flag(rest, "-p", line_no, origin)
            try:
                prob = float(p)
            except ValueError:
                raise ParseError(f"-p needs a number, got {p!r}",
                                 line_no, 0, origin) from None
            parse_int(take_flag(rest, "-seed", line_no, origin), "-seed",
                      line_no, origin)
            if rest:
                raise ParseError(f"unexpected tokens {rest!r}", line_no, 0, origin)
            if not 0.0 <= prob <= 1.0:
                raise ParseError("toggle probability must be in [0,1]", line_no, 0, origin)
            st.random = RandomDriver(ports, prob)
        elif parts[0] == "run":
            if len(parts) != 4 or parts[2] != "of":
                raise ParseError("expected: run <edges> of <clock>", line_no, 0, origin)
            if st.run_clock:
                raise ParseError("duplicate run directive", line_no, 0, origin)
            st.run_edges = parse_int(parts[1], "run", line_no, origin)
            st.run_clock = parts[3]
            st.run_line = line_no
            if st.run_edges < 1:
                raise ParseError("run length must be >= 1 edge", line_no, 0, origin)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line_no, 0, origin)
    if not st.run_clock:
        raise ParseError(f"{origin}: stimulus needs a run directive", origin=origin)
    return st


def run_clock_edges(st: Stimulus, clocks: list[ClockSpec], end_tick: int) -> dict[str, int]:
    """Each clock's edges up to `end_tick`, the run's last tick, counted
    without listing them; a ParseError at the `run` line when they sum to
    more than `MAX_RUN_EDGES`."""
    edges = {c.name: max(0, (end_tick - c.phase) // c.period + 1) for c in clocks}
    total = sum(edges.values())
    if total > MAX_RUN_EDGES:
        raise ParseError(f"run of {st.run_edges} {st.run_clock} edges implies {total} "
                         f"clock edges; a run may imply at most {MAX_RUN_EDGES}",
                         st.run_line, 0, st.origin)
    return edges
