"""Stimulus files: line-oriented port drives plus a run length.

    at <clock> <edge#> set <port> <value>
    random -ports <p1,p2,...> -p <prob> -seed <int>
    run <edges> of <clock>

`at` applies the value at the tick of that clock's posedge, before flops
evaluate, so a flop clocked at the same tick captures the new value.
`random` toggles each listed port with probability `-p` at every tick,
drawn from the simulation seed's RNG; `-seed` is checked but not used.
Exactly one `run` directive is required; simulation covers every clock edge
up to and including the run clock's last requested posedge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import parse_int, take_flag
from .errors import ParseError


@dataclass(frozen=True)
class SetDirective:
    clock: str
    edge: int
    port: str
    value: int


@dataclass(frozen=True)
class RandomDriver:
    ports: tuple[str, ...]
    probability: float


@dataclass
class Stimulus:
    sets: list[SetDirective] = field(default_factory=list)
    random: RandomDriver | None = None
    run_clock: str = ""
    run_edges: int = 0


def parse_stimulus(text: str, origin: str = "<stimulus>") -> Stimulus:
    st = Stimulus()
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
            if st.run_edges < 1:
                raise ParseError("run length must be >= 1 edge", line_no, 0, origin)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", line_no, 0, origin)
    if not st.run_clock:
        raise ParseError("stimulus needs a run directive", 0, 0, origin)
    return st
