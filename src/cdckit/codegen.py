"""SystemVerilog checker and coverage text generation.

The generated checks are rendered from the default runtime checker suite
(`checkers.build_checkers`), one property set per checker, grouped into one
module per recognized structure: ndff_sync_check (the stability and gray
code checkers of one n-flop synchronizer), pulse_sync_check,
mux_sync_check, async_fifo_check, clock_gate_check and
signal_config_check; the coverage model comes from the crossing pairs.
Checkers of user synchronizers (`sync_cells`) and latency checkers get no
generated mirror.  Output is deterministic: fixed iteration order, no
timestamps, a version-only header.

Generated assertions stay inside a small fixed template vocabulary —
property/endproperty, assert property, $stable/$rose/$past, disable iff,
and plain boolean/bit expressions — which the test suite's interpreter
(tests/sva_interp.py) executes against simulation traces.  Every property
carries a `// checker:` comment naming the runtime checker it mirrors, and
each assertion's trigger condition matches that checker's sampled
semantics exactly.  One rule sets every `disable iff`: a property is
disabled while any declared reset of its clock's domain is active, the
same resets the simulator ORs into that checker's reset input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .checkers import (ClockGateChecker, FifoChecker, GrayCodeChecker,
                       MuxEnableChecker, PulseWidthChecker, StabilityChecker,
                       StaticChecker, build_checkers)
from .constraints import ConstraintSet
from .errors import NameCollision
from .netlist import Netlist
from .rules import Analysis

HEADER = f"// generated-by: cdckit {__version__}"


@dataclass(frozen=True)
class GeneratedFile:
    path: str
    text: str
    generator: str
    sources: tuple[str, ...]


def _sanitize(name: str) -> str:
    return name.replace(".", "__")


def _width_decl(width: int) -> str:
    return f" [{width - 1}:0]" if width > 1 else ""


class _Module:
    """One checker module.  Its ports are the property clocks, then the
    resets that disable them, then the sampled signals."""

    def __init__(self, name: str, generator: str, owner: str | None,
                 rank: tuple[int, int], constraints: ConstraintSet):
        self.name = name
        self.generator = generator
        self.owner = owner
        self.rank = rank
        self.sources = [owner] if owner else []
        self.constraints = constraints
        self.clocks: dict[str, tuple[str, str | None]] = {}
        self.ports: dict[str, list[tuple[str, int, str]]] = {
            "clock": [], "reset": [], "signal": []}   # (port, width, bound net)
        self.body: list[str] = []

    def _port(self, group: str, name: str, net: str, width: int = 1) -> str:
        self.ports[group].append((name, width, net))
        return name

    def signal(self, name: str, net: str, width: int = 1) -> str:
        return self._port("signal", name, net, width)

    def clock(self, tag: str, clock: str) -> tuple[str, str | None]:
        """The port `clk_<tag>` of property clock `clock` and its `disable
        iff` condition: any declared reset of the clock's domain, each on a
        port named after the clock port (`rst_<tag>[_n]`, then
        `rst_<tag>_1[_n]`, ...)."""
        if clock not in self.clocks:
            port = self._port("clock", f"clk_{tag}", clock)
            terms = []
            for i, r in enumerate(self.constraints.clock_resets(clock)):
                rst = self._port("reset", f"rst_{tag}{f'_{i}' if i else ''}"
                                 f"{'_n' if r.active_low else ''}", r.net)
                terms.append(f"!{rst}" if r.active_low else rst)
            self.clocks[clock] = (port, " || ".join(terms) or None)
        return self.clocks[clock]

    def prop(self, name: str, clock: tuple[str, str | None], expr: str,
             mirrors: str):
        port, disable = clock
        self.body.append(f"  // checker: {mirrors}")
        self.body.append(f"  property {name};")
        head = f"    @(posedge {port})"
        if disable:
            head += f" disable iff ({disable})"
        self.body.append(head)
        self.body.append(f"      {expr};")
        self.body.append("  endproperty")
        self.body.append(f"  assert property ({name});")
        self.body.append("")

    def port_list(self) -> list[tuple[str, int, str]]:
        return self.ports["clock"] + self.ports["reset"] + self.ports["signal"]

    def render(self) -> str:
        lines = [HEADER, f"// class: {self.generator}",
                 f"// sources: {', '.join(self.sources) or '-'}",
                 f"module {self.name} ("]
        ports = self.port_list()
        for i, (name, width, _net) in enumerate(ports):
            comma = "," if i < len(ports) - 1 else ""
            lines.append(f"  input wire{_width_decl(width)} {name}{comma}")
        lines.append(");")
        lines.append("")
        lines.extend(self.body)
        lines.append("endmodule")
        return "\n".join(lines) + "\n"


def _stability_expr(sig: str, k: int) -> str:
    terms = " && ".join(f"($past({sig}, 1) == $past({sig}, {i}))"
                        for i in range(2, k + 1))
    return f"({sig} != $past({sig})) |-> ({terms})"


def _gray_expr(sig: str, width: int) -> str:
    terms = [f"(({sig} ^ $past({sig})) == {width}'h0)"]
    terms += [f"(({sig} ^ $past({sig})) == {width}'h{1 << b:x})"
              for b in range(width)]
    return " || ".join(terms)


def generate_checks(analysis: Analysis) -> list[GeneratedFile]:
    """One property set per checker of the default suite, in one module
    per recognized structure, plus a companion bind file."""
    a = analysis
    nl = a.netlist
    cs = a.constraints
    modules: dict[str, _Module] = {}
    # module order: synchronizers as recognized, then clock gates in checker
    # order, then the signal configuration module
    sync_rank = {s.id: (0, n) for n, s in enumerate(a.syncs)}

    def module(name: str, generator: str, owner: str | None,
               rank: tuple[int, int]) -> _Module:
        mod = modules.get(name)
        if mod is None:
            mod = modules[name] = _Module(name, generator, owner, rank, cs)
        elif mod.owner != owner:
            raise NameCollision(f"two generated modules named {name!r}")
        return mod

    def net(idx: int) -> str:
        return nl.nets[idx].name

    for c in build_checkers(a):
        subject = c.id.split(":", 1)[1]
        if isinstance(c, (StabilityChecker, GrayCodeChecker)):
            st = a.status[subject]
            if st.sync_kind != "ndff":
                continue        # user synchronizers get no generated mirror
            mod = module(f"{st.sync_id}_ndff_check", "ndff_sync_check", st.sync_id,
                         sync_rank[st.sync_id])
            mod.sources.append(subject)
            stable = isinstance(c, StabilityChecker)
            width = nl.nets[c.net].width
            clk = mod.clock("dst" if stable else "src", c.clocks[0])
            sig = mod.signal(f"src_{subject}", c.label, width)
            if stable:
                mod.prop(f"p_stable_{subject}", clk, _stability_expr(sig, c.k), c.id)
            else:
                mod.prop(f"p_gray_{subject}", clk, _gray_expr(sig, width), c.id)
        elif isinstance(c, PulseWidthChecker):
            mod = module(f"{subject}_pulse_check", "pulse_sync_check", subject,
                         sync_rank[subject])
            clk = mod.clock("src", c.clocks[0])
            pulse = mod.signal("pulse_in", net(c.net))
            mod.prop(f"p_width_{subject}", clk, f"!({pulse} && $past({pulse}))", c.id)
        elif isinstance(c, MuxEnableChecker):
            mod = module(f"{subject}_mux_check", "mux_sync_check", subject,
                         sync_rank[subject])
            clk = mod.clock("dst", c.clocks[0])
            en = mod.signal("sel_en", net(c.enable_net))
            data = mod.signal("data_bus", net(c.data_net), nl.nets[c.data_net].width)
            mod.prop(f"p_hold_{subject}", clk, f"{en} |-> $stable({data})", c.id)
        elif isinstance(c, FifoChecker):
            mod = module(f"{subject}_fifo_check", "async_fifo_check", subject,
                         sync_rank[subject])
            w = c.width
            clk_w = mod.clock("w", c.wclock)
            clk_r = mod.clock("r", c.rclock)
            wg = mod.signal("wgray", net(c.wgray), w)
            rg = mod.signal("rgray", net(c.rgray), w)
            rs = mod.signal("rsync", net(c.rsync_w), w)
            ws = mod.signal("wsync", net(c.wsync_r), w)
            twist = (f"{{~$past({rs}[{w - 1}:{w - 2}]), $past({rs}[{w - 3}:0])}}"
                     if w > 2 else f"~$past({rs})")
            mod.prop(f"p_gray_w_{subject}", clk_w, _gray_expr(wg, w), c.id)
            mod.prop(f"p_full_{subject}", clk_w,
                     f"({wg} != $past({wg})) |-> !($past({wg}) == {twist})", c.id)
            mod.prop(f"p_gray_r_{subject}", clk_r, _gray_expr(rg, w), c.id)
            mod.prop(f"p_empty_{subject}", clk_r,
                     f"({rg} != $past({rg})) |-> !($past({rg}) == $past({ws}))", c.id)
        elif isinstance(c, ClockGateChecker):
            tag = _sanitize(subject)
            mod = module(f"cg_{tag}_check", "clock_gate_check", subject, (1, 0))
            clk = mod.clock("root", c.clocks[0])
            en = mod.signal("gate_en", net(c.net))
            mod.prop(f"p_gate_{tag}", clk,
                     f"!(({en} != $past({en})) && ($past({en}, 1) != $past({en}, 2)))",
                     c.id)
        elif isinstance(c, StaticChecker):
            mod = module("signal_config_check", "signal_config_check", None, (2, 0))
            mod.sources.append(c.label)
            clk = mod.clock("ref", c.clocks[0])
            sig = mod.signal(f"sig_{_sanitize(c.label)}", c.label,
                             nl.nets[c.net].width)
            mod.prop(f"p_static_{_sanitize(c.label)}", clk, f"$stable({sig})", c.id)

    # false paths are recorded in the signal configuration module
    if cs.false_paths and cs.clocks:
        mod = module("signal_config_check", "signal_config_check", None, (2, 0))
        mod.clock("ref", cs.clocks[0].name)
        for fp in cs.false_paths:
            mod.sources.append(f"{fp.src}->{fp.dst}")
            mod.body.append(f"  // false_path -from {fp.src} -to {fp.dst} "
                            f"(excluded from analysis by constraint)")

    ordered = sorted(modules.values(), key=lambda m: m.rank)
    files = [GeneratedFile(f"gen/checks/{m.generator}/{m.name}.sv", m.render(),
                           m.generator, tuple(m.sources)) for m in ordered]
    bind_lines = [HEADER, "// class: bind", ""]
    for mod in ordered:
        conns = ", ".join(f".{port}({bound})" for port, _w, bound in mod.port_list())
        bind_lines.append(f"bind {nl.name} {mod.name} u_{mod.name} ({conns});")
    files.append(GeneratedFile("gen/bind_all.sv", "\n".join(bind_lines) + "\n",
                               "bind", tuple(m.name for m in ordered)))
    files.sort(key=lambda f: f.path)
    return files


def generate_coverage_model(analysis: Analysis) -> GeneratedFile:
    """Covergroups with the four resolution bins per unsuppressed pair,
    sampled on the destination clock via injection hook signals."""
    a = analysis
    lines = [HEADER, "// class: coverage", "",
             "module cdc_cov ("]
    ports = []
    clocks_used = []
    for p in a.pairs:
        if p.suppressed is not None:
            continue
        clk = a.domains.clock_root[p.dst]
        if clk not in clocks_used:
            clocks_used.append(clk)
        ports.append((f"msi_fire_{p.id}", 1))
        ports.append((f"msi_kind_{p.id}", 1))
        ports.append((f"msi_value_{p.id}", 1))
    port_decls = [f"  input wire clk_{_sanitize(c)}" for c in clocks_used]
    port_decls += [f"  input wire {name}" for name, _w in ports]
    for i, decl in enumerate(port_decls):
        lines.append(decl + ("," if i < len(port_decls) - 1 else ""))
    lines.append(");")
    lines.append("")
    count = 0
    for p in a.pairs:
        if p.suppressed is not None:
            continue
        clk = _sanitize(a.domains.clock_root[p.dst])
        lines.append(f"  covergroup cg_{p.id} @(posedge clk_{clk});")
        lines.append(f"    coverpoint {{msi_kind_{p.id}, msi_value_{p.id}}} "
                     f"iff (msi_fire_{p.id}) {{")
        lines.append(f"      bins setup_to_0 = {{2'b00}};")
        lines.append(f"      bins setup_to_1 = {{2'b01}};")
        lines.append(f"      bins hold_to_0 = {{2'b10}};")
        lines.append(f"      bins hold_to_1 = {{2'b11}};")
        lines.append("    }")
        lines.append("  endgroup")
        lines.append("")
        count += 1
    lines.append("endmodule")
    return GeneratedFile("gen/coverage/cdc_cov.sv", "\n".join(lines) + "\n",
                         "coverage",
                         tuple(p.id for p in a.pairs if p.suppressed is None))


def generate_all(analysis: Analysis) -> list[GeneratedFile]:
    files = generate_checks(analysis)
    files.append(generate_coverage_model(analysis))
    files.sort(key=lambda f: f.path)
    return files


# --- structural lint over generated text -----------------------------------

_BALANCED = (("module", "endmodule"), ("property", "endproperty"),
             ("covergroup", "endgroup"), ("begin", "end"))

_SVA_KEYWORDS = {
    "module", "endmodule", "input", "output", "wire", "property", "endproperty",
    "assert", "disable", "iff", "posedge", "negedge", "covergroup", "endgroup",
    "coverpoint", "bins", "bind", "begin", "end",
}
_SVA_FUNCS = {"$past", "$stable", "$rose"}
_PORT_DECL = r"input\s+wire\s*(?:\[[^\]]*\])?\s*(\w+)"


def lint_generated(files: list[GeneratedFile], netlist: Netlist) -> list[str]:
    """Balanced structure, unique port names and identifier resolution;
    empty list means clean."""
    import re
    problems: list[str] = []
    module_names = set()
    for f in files:
        for opener, closer in _BALANCED:
            if opener == "property":
                # `assert property (...)` is a use, not an opener
                n_open = len(re.findall(r"(?<!assert )\bproperty\b", f.text))
            else:
                n_open = len(re.findall(rf"\b{opener}\b", f.text))
            n_close = len(re.findall(rf"\b{closer}\b", f.text))
            if n_open != n_close:
                problems.append(f"{f.path}: unbalanced {opener}/{closer}")
        for m in re.finditer(r"^module\s+(\w+)", f.text, re.M):
            module_names.add(m.group(1))
    alias_ok = set(netlist.net_index)
    for f in files:
        if f.generator == "bind":
            for m in re.finditer(r"\.\w+\(([^)]*)\)", f.text):
                net = m.group(1).strip()
                if net and net not in alias_ok:
                    problems.append(f"{f.path}: unknown signal {net!r}")
            for m in re.finditer(r"^bind\s+\w+\s+(\w+)", f.text, re.M):
                if m.group(1) not in module_names:
                    problems.append(f"{f.path}: bind of unknown module {m.group(1)!r}")
            continue
        # each file holds one module, whose ports must be declared once
        ports = re.findall(_PORT_DECL, f.text)
        local = set(ports)
        if len(local) < len(ports):
            for port in sorted(local):
                if ports.count(port) > 1:
                    problems.append(f"{f.path}: port {port!r} declared twice")
        # identifiers inside a module must be locally declared ports
        local |= {m.group(1) for m in re.finditer(r"property\s+(\w+)", f.text)}
        local |= {m.group(1) for m in re.finditer(r"covergroup\s+(\w+)", f.text)}
        local |= {m.group(1) for m in re.finditer(r"bins\s+(\w+)", f.text)}
        local |= {m.group(1) for m in re.finditer(r"^module\s+(\w+)", f.text, re.M)}
        for tok in re.findall(r"(?<![\w$.'])([A-Za-z_][A-Za-z0-9_]*)", _strip_comments(f.text)):
            if tok in _SVA_KEYWORDS or tok in local:
                continue
            problems.append(f"{f.path}: unresolved identifier {tok!r}")
    return problems


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("//", 1)[0] for line in text.splitlines())
