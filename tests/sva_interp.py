"""Interpreter for the generated assertion templates.

Executes the exact vocabulary `codegen` emits — properties of the shape
`@(posedge clk) [disable iff (cond)] expr [|-> expr]` over $past/$stable/
$rose and plain bit/boolean operators — against simulation waveforms, so a
generated checker can be cross-checked against its runtime counterpart on
the same trace.

Sampling matches the simulator's checker semantics: values are read after
state update at each posedge of the property clock, and an assertion is
evaluated only when no disabled or missing sample falls inside its $past
lookback window (runtime checkers likewise restart history on reset).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cdckit.constraints import ConstraintSet
from cdckit.errors import ParseError

# --- expression mini-language -------------------------------------------------

_TOK = re.compile(r"""
    (?P<ws>\s+)
  | (?P<sized>\d+'[bdh][0-9a-fA-F]+)
  | (?P<num>\d+)
  | (?P<func>\$(?:past|stable|rose))
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\|->|\|\||&&|==|!=|[()\[\]{}:,~!&|^])
""", re.VERBOSE)


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOK.match(text, pos)
        if m is None:
            raise ParseError(f"cannot tokenize assertion text at {text[pos:pos+10]!r}")
        if m.lastgroup != "ws":
            out.append(m.group())
        pos = m.end()
    return out


@dataclass(frozen=True)
class _Node:
    op: str                       # id,num,slice,concat,unary,binary,func
    value: object = None
    args: tuple = ()


class _ExprParser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def eat(self, tok: str | None = None) -> str:
        cur = self.peek()
        if cur is None or (tok is not None and cur != tok):
            raise ParseError(f"expected {tok!r}, found {cur!r} in assertion")
        self.pos += 1
        return cur

    def parse(self) -> _Node:
        node = self.parse_or()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens in assertion: {self.toks[self.pos:]}")
        return node

    def parse_or(self) -> _Node:
        lhs = self.parse_and()
        while self.peek() == "||":
            self.eat()
            lhs = _Node("binary", "||", (lhs, self.parse_and()))
        return lhs

    def parse_and(self) -> _Node:
        lhs = self.parse_eq()
        while self.peek() == "&&":
            self.eat()
            lhs = _Node("binary", "&&", (lhs, self.parse_eq()))
        return lhs

    def parse_eq(self) -> _Node:
        lhs = self.parse_bit()
        while self.peek() in ("==", "!="):
            op = self.eat()
            lhs = _Node("binary", op, (lhs, self.parse_bit()))
        return lhs

    def parse_bit(self) -> _Node:
        lhs = self.parse_unary()
        while self.peek() in ("|", "^", "&"):
            op = self.eat()
            lhs = _Node("binary", op, (lhs, self.parse_unary()))
        return lhs

    def parse_unary(self) -> _Node:
        if self.peek() in ("!", "~"):
            op = self.eat()
            return _Node("unary", op, (self.parse_unary(),))
        return self.parse_primary()

    def parse_primary(self) -> _Node:
        tok = self.peek()
        if tok == "(":
            self.eat()
            inner = self.parse_or()
            self.eat(")")
            return inner
        if tok == "{":
            self.eat()
            parts = [self.parse_or()]
            while self.peek() == ",":
                self.eat()
                parts.append(self.parse_or())
            self.eat("}")
            return _Node("concat", None, tuple(parts))
        if tok is not None and tok.startswith("$"):
            func = self.eat()
            self.eat("(")
            args = [self.parse_or()]
            while self.peek() == ",":
                self.eat()
                args.append(self.parse_or())
            self.eat(")")
            return _Node("func", func, tuple(args))
        if tok is not None and "'" in tok:
            self.eat()
            width_s, rest = tok.split("'")
            base = {"b": 2, "d": 10, "h": 16}[rest[0]]
            return _Node("num", (int(rest[1:], base), int(width_s)))
        if tok is not None and tok.isdigit():
            self.eat()
            return _Node("num", (int(tok), None))
        if tok is not None and re.fullmatch(r"[A-Za-z_]\w*", tok):
            self.eat()
            if self.peek() == "[":
                self.eat()
                msb = int(self.eat())
                lsb = msb
                if self.peek() == ":":
                    self.eat()
                    lsb = int(self.eat())
                self.eat("]")
                return _Node("slice", tok, (msb, lsb))
            return _Node("id", tok)
        raise ParseError(f"unexpected token {tok!r} in assertion")


def parse_expr(text: str) -> _Node:
    return _ExprParser(_tokenize(text)).parse()


def max_past_depth(node: _Node) -> int:
    kids = [a for a in node.args if isinstance(a, _Node)]
    if node.op == "func":
        inner = max((max_past_depth(a) for a in kids), default=0)
        if node.value == "$past":
            n = 1
            if len(node.args) == 2 and node.args[1].op == "num":
                n = node.args[1].value[0]
            return inner + n
        return inner + 1  # $stable/$rose look back one sample
    return max((max_past_depth(a) for a in kids), default=0)


# --- module / property parsing --------------------------------------------------

@dataclass(frozen=True)
class Property:
    name: str
    clock_port: str
    disable: _Node | None
    antecedent: _Node | None
    consequent: _Node
    mirrors: str            # runtime checker id from the // checker: comment
    depth: int


@dataclass
class CheckerModule:
    name: str
    generator: str
    ports: dict[str, int]   # name -> width
    properties: list[Property]


def parse_checker_module(text: str) -> CheckerModule:
    name_m = re.search(r"^module\s+(\w+)", text, re.M)
    gen_m = re.search(r"^// class:\s*(\S+)", text, re.M)
    if not name_m:
        raise ParseError("no module in generated file")
    ports: dict[str, int] = {}
    for m in re.finditer(r"input\s+wire\s*(?:\[(\d+):0\]\s*)?(\w+)", text):
        ports[m.group(2)] = int(m.group(1)) + 1 if m.group(1) else 1

    props: list[Property] = []
    prop_re = re.compile(
        r"// checker:\s*(\S+)\s*\n\s*property\s+(\w+);\s*\n"
        r"\s*@\(posedge\s+(\w+)\)(?:\s+disable\s+iff\s+\(([^\n]*)\))?\s*\n"
        r"\s*(.*?);\s*\n\s*endproperty", re.S)
    for m in prop_re.finditer(text):
        mirrors, pname, clk, dis, body = m.groups()
        dis_node = parse_expr(dis) if dis else None
        if "|->" in body:
            ante_s, cons_s = body.split("|->", 1)
            ante = parse_expr(ante_s)
            cons = parse_expr(cons_s)
        else:
            ante = None
            cons = parse_expr(body)
        depth = max(max_past_depth(cons), max_past_depth(ante) if ante else 0,
                    max_past_depth(dis_node) if dis_node else 0)
        props.append(Property(pname, clk, dis_node, ante, cons, mirrors, depth))
    return CheckerModule(name_m.group(1), gen_m.group(1) if gen_m else "?",
                         ports, props)


def parse_bindings(bind_text: str) -> dict[str, dict[str, str]]:
    """module name -> {port: netlist signal} from the companion bind file."""
    out: dict[str, dict[str, str]] = {}
    for m in re.finditer(r"^bind\s+\w+\s+(\w+)\s+\w+\s*\((.*)\);", bind_text, re.M):
        conns = {}
        for c in re.finditer(r"\.(\w+)\(([^)]*)\)", m.group(2)):
            conns[c.group(1)] = c.group(2).strip()
        out[m.group(1)] = conns
    return out


# --- evaluation -----------------------------------------------------------------

class _Series:
    """Sampled values of one signal at each edge of the property clock."""

    def __init__(self, samples: list[int], width: int):
        self.samples = samples
        self.width = width


def _sample_wave(wave: list[tuple[int, int]], ticks: list[int]) -> list[int]:
    out = []
    pos = 0
    cur = wave[0][1] if wave else 0
    for t in ticks:
        while pos < len(wave) and wave[pos][0] <= t:
            cur = wave[pos][1]
            pos += 1
        out.append(cur)
    return out


def _eval(node: _Node, series: dict[str, _Series], k: int) -> tuple[int, int]:
    """Returns (value, width) of `node` at sample index k."""
    if node.op == "id":
        s = series[node.value]
        return s.samples[k], s.width
    if node.op == "num":
        value, width = node.value
        return value, width or max(value.bit_length(), 1)
    if node.op == "slice":
        s = series[node.value]
        msb, lsb = node.args
        return (s.samples[k] >> lsb) & ((1 << (msb - lsb + 1)) - 1), msb - lsb + 1
    if node.op == "concat":
        v, w = 0, 0
        for part in node.args:
            pv, pw = _eval(part, series, k)
            v = (v << pw) | (pv & ((1 << pw) - 1))
            w += pw
        return v, w
    if node.op == "unary":
        v, w = _eval(node.args[0], series, k)
        if node.value == "!":
            return (0 if v else 1), 1
        return (~v) & ((1 << w) - 1), w
    if node.op == "binary":
        op = node.value
        lv, lw = _eval(node.args[0], series, k)
        rv, rw = _eval(node.args[1], series, k)
        if op == "||":
            return (1 if (lv or rv) else 0), 1
        if op == "&&":
            return (1 if (lv and rv) else 0), 1
        if op == "==":
            return (1 if lv == rv else 0), 1
        if op == "!=":
            return (1 if lv != rv else 0), 1
        w = max(lw, rw)
        if op == "&":
            return lv & rv, w
        if op == "|":
            return lv | rv, w
        return lv ^ rv, w
    if node.op == "func":
        if node.value == "$past":
            n = 1
            if len(node.args) == 2:
                n = node.args[1].value[0]
            return _eval(node.args[0], series, k - n)
        if node.value == "$stable":
            now, w = _eval(node.args[0], series, k)
            before, _ = _eval(node.args[0], series, k - 1)
            return (1 if now == before else 0), 1
        if node.value == "$rose":
            now, _ = _eval(node.args[0], series, k)
            before, _ = _eval(node.args[0], series, k - 1)
            return (1 if (now & 1) and not (before & 1) else 0), 1
    raise ParseError(f"cannot evaluate node {node.op}")


@dataclass
class AssertionResult:
    module: str
    prop: str
    mirrors: str
    passed: bool
    fail_tick: int | None = None


def evaluate_module(mod: CheckerModule, binding: dict[str, str],
                    waves_by_name: dict[str, list[tuple[int, int]]],
                    constraints: ConstraintSet,
                    edge_counts: dict[str, int]) -> list[AssertionResult]:
    """Run every property of a generated checker over a recorded trace."""
    results = []
    for prop in mod.properties:
        clock_net = binding[prop.clock_port]
        spec = constraints.clock_by_name(clock_net)
        if spec is None:
            raise ParseError(f"checker clock {clock_net!r} is not a declared clock")
        n_edges = edge_counts.get(clock_net, 0)
        ticks = [spec.edge_tick(k) for k in range(n_edges)]
        series: dict[str, _Series] = {}
        for port, width in mod.ports.items():
            net = binding.get(port)
            if net is None:
                continue
            wave = waves_by_name.get(net, [])
            series[port] = _Series(_sample_wave(wave, ticks), width)
        disabled = [False] * n_edges
        if prop.disable is not None:
            for k in range(n_edges):
                v, _ = _eval(prop.disable, series, k)
                disabled[k] = bool(v)
        passed = True
        fail_tick = None
        for k in range(n_edges):
            if k < prop.depth:
                continue
            if any(disabled[k - prop.depth:k + 1]):
                continue
            if prop.antecedent is not None:
                av, _ = _eval(prop.antecedent, series, k)
                if not av:
                    continue
            cv, _ = _eval(prop.consequent, series, k)
            if not cv:
                passed = False
                fail_tick = ticks[k]
                break
        results.append(AssertionResult(mod.name, prop.name, prop.mirrors,
                                       passed, fail_tick))
    return results
