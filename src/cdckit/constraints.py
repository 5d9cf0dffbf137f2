"""Crossing-analysis constraints: clocks, resets, static nets, false paths.

Line-oriented format, one directive per line, `#` comments:

    clock <name> -period <int> [-phase <int>] -domain <id>
    reset <net> [-active_low] -domain <id>
    static <net>
    false_path -from <net> -to <net>
    sync_cells <module>
    option <key> <value>

Clock periods and phases are integer ticks; two clocks are synchronous iff
they declare the same domain label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadPeriod, DuplicateClock, ParseError, UnknownOption
from .findings import NOTE_IDS, RULES, SEVERITIES


@dataclass(frozen=True)
class ClockSpec:
    name: str
    period: int
    phase: int
    domain: str

    def edge_tick(self, index: int) -> int:
        return self.phase + index * self.period


@dataclass(frozen=True)
class ResetSpec:
    net: str
    active_low: bool
    domain: str


@dataclass(frozen=True)
class FalsePath:
    src: str
    dst: str


_INT_OPTIONS = {
    "ndff_min_depth": 2,
    "stability_cycles": 2,
    "setup_window": 1,
    "hold_window": 1,
}
# Integer options whose least value is 1, not 0: a synchronizer needs a
# flop, and a stability checker compares at least two samples.
_AT_LEAST_ONE = ("ndff_min_depth", "stability_cycles")


@dataclass
class ConstraintSet:
    clocks: list[ClockSpec] = field(default_factory=list)
    resets: list[ResetSpec] = field(default_factory=list)
    static_signals: list[str] = field(default_factory=list)
    false_paths: list[FalsePath] = field(default_factory=list)
    sync_cells: list[str] = field(default_factory=list)
    options: dict[str, int] = field(default_factory=lambda: dict(_INT_OPTIONS))
    severity: dict[str, str] = field(default_factory=dict)

    def clock_by_name(self, name: str) -> ClockSpec | None:
        for c in self.clocks:
            if c.name == name:
                return c
        return None

    def clock_resets(self, clock: str) -> list[ResetSpec]:
        """The declared resets of `clock`'s domain.  A checker sampling on
        `clock`, and the generated property that mirrors it, is disabled
        while any of them is active."""
        spec = self.clock_by_name(clock)
        if spec is None:
            return []
        return [r for r in self.resets if r.domain == spec.domain]

    def rule_severity(self, rule: str) -> str:
        return self.severity.get(rule, RULES.get(rule, "warning"))


def take_flag(parts: list[str], flag: str, line_no: int, origin: str) -> str:
    """Remove `flag` and its value from `parts`; returns the value."""
    if flag not in parts:
        raise ParseError(f"missing {flag}", line_no, 0, origin)
    i = parts.index(flag)
    if i + 1 >= len(parts):
        raise ParseError(f"{flag} needs a value", line_no, 0, origin)
    value = parts[i + 1]
    del parts[i:i + 2]
    return value


def parse_int(text: str, what: str, line_no: int, origin: str) -> int:
    """`text` as an integer, or a ParseError at `line_no` naming `what`."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} needs an integer, got {text!r}",
                         line_no, 0, origin) from None


def parse_constraints(text: str, origin: str = "<constraints>") -> ConstraintSet:
    return parse_constraint_texts([(origin, text)])


def parse_constraint_texts(texts: list[tuple[str, str]]) -> ConstraintSet:
    """One constraint set from (origin, text) pairs read in order: a later
    `option` overrides an earlier one, and a clock or `static` declared
    twice is an error in any of them."""
    cs = ConstraintSet()
    static_at: dict[str, tuple[str, int]] = {}
    for origin, text in texts:
        _parse_into(cs, text, origin, static_at)
    return cs


def _parse_into(cs: ConstraintSet, text: str, origin: str,
                static_at: dict[str, tuple[str, int]]) -> None:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive, args = parts[0], parts[1:]
        if directive == "clock":
            if not args:
                raise ParseError("clock needs a name", line_no, 0, origin)
            name = args[0]
            rest = args[1:]
            period = parse_int(take_flag(rest, "-period", line_no, origin),
                               "-period", line_no, origin)
            phase = (parse_int(take_flag(rest, "-phase", line_no, origin),
                               "-phase", line_no, origin)
                     if "-phase" in rest else 0)
            domain = take_flag(rest, "-domain", line_no, origin)
            if rest:
                raise ParseError(f"unexpected tokens {rest!r}", line_no, 0, origin)
            if period < 2:
                raise BadPeriod(f"clock period must be >= 2 ticks, got {period}",
                                line_no, 0, origin)
            if phase < 0 or phase >= period:
                raise ParseError("clock phase must satisfy 0 <= phase < period",
                                 line_no, 0, origin)
            if cs.clock_by_name(name) is not None:
                raise DuplicateClock(f"clock {name!r} already declared", line_no, 0, origin)
            cs.clocks.append(ClockSpec(name, period, phase, domain))
        elif directive == "reset":
            if not args:
                raise ParseError("reset needs a net", line_no, 0, origin)
            net = args[0]
            rest = args[1:]
            active_low = "-active_low" in rest
            if active_low:
                rest.remove("-active_low")
            domain = take_flag(rest, "-domain", line_no, origin)
            if rest:
                raise ParseError(f"unexpected tokens {rest!r}", line_no, 0, origin)
            cs.resets.append(ResetSpec(net, active_low, domain))
        elif directive == "static":
            if len(args) != 1:
                raise ParseError("static takes exactly one net", line_no, 0, origin)
            first = static_at.setdefault(args[0], (origin, line_no))
            if first != (origin, line_no):
                where = (f"line {first[1]}" if first[0] == origin
                         else f"{first[0]}:{first[1]}")
                raise ParseError(f"static {args[0]!r} already declared on {where}",
                                 line_no, 0, origin)
            cs.static_signals.append(args[0])
        elif directive == "false_path":
            rest = list(args)
            src = take_flag(rest, "-from", line_no, origin)
            dst = take_flag(rest, "-to", line_no, origin)
            if rest:
                raise ParseError(f"unexpected tokens {rest!r}", line_no, 0, origin)
            cs.false_paths.append(FalsePath(src, dst))
        elif directive == "sync_cells":
            if len(args) != 1:
                raise ParseError("sync_cells takes exactly one module name", line_no, 0, origin)
            cs.sync_cells.append(args[0])
        elif directive == "option":
            if len(args) != 2:
                raise ParseError("option takes a key and a value", line_no, 0, origin)
            key, value = args
            if key in _INT_OPTIONS:
                ivalue = parse_int(value, f"option {key}", line_no, origin)
                if ivalue < (1 if key in _AT_LEAST_ONE else 0):
                    raise ParseError(f"bad value for option {key}", line_no, 0, origin)
                cs.options[key] = ivalue
            elif key.startswith("severity."):
                rule = key[len("severity."):]
                if rule not in RULES and rule not in NOTE_IDS:
                    raise UnknownOption(f"unknown rule {rule!r} in severity option",
                                        line_no, 0, origin)
                if value not in SEVERITIES:
                    raise ParseError(f"severity must be one of {SEVERITIES}", line_no, 0, origin)
                cs.severity[rule] = value
            else:
                raise UnknownOption(f"unknown option {key!r}", line_no, 0, origin)
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no, 0, origin)
