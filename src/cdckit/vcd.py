"""Minimal VCD change-dump writer for simulation waveforms."""

from __future__ import annotations

from .netlist import Netlist

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _var_id(n: int) -> str:
    out = ""
    while True:
        out = _ID_CHARS[n % len(_ID_CHARS)] + out
        n //= len(_ID_CHARS)
        if n == 0:
            return out


def _formatter(width: int, vid: str):
    """The value-change line of a net of `width` bits and id `vid`, as a
    function of its value, built once per net."""
    if width == 1:
        return ("0" + vid, "1" + vid).__getitem__
    braced = vid.replace("{", "{{").replace("}", "}}")
    return f"b{{:0{width}b}} {braced}".format


def write_vcd(netlist: Netlist, waves: dict[int, list[tuple[int, int]]],
              timescale: str = "1ns") -> str:
    """Render waveforms (net index -> [(tick, value)]) as VCD text.

    Initial values (recorded at a negative tick) land in the time-zero dump;
    hierarchical separators in net names are kept as dots, which common
    viewers split into scopes themselves.
    """
    nets = sorted(waves, key=lambda i: netlist.nets[i].name)
    ids = {n: _var_id(k) for k, n in enumerate(nets)}
    lines = ["$version cdckit $end", f"$timescale {timescale} $end",
             f"$scope module {netlist.name} $end"]
    for n in nets:
        net = netlist.nets[n]
        ref = net.name if net.width == 1 else f"{net.name}[{net.width - 1}:0]"
        lines.append(f"$var wire {net.width} {ids[n]} {ref} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    by_tick: dict[int, list[str]] = {}
    initials = []
    for n in nets:
        fmt = _formatter(netlist.nets[n].width, ids[n])
        for tick, value in waves[n]:
            if tick < 0:
                initials.append(fmt(value))
            else:
                by_tick.setdefault(tick, []).append(fmt(value))
    lines.append("$dumpvars")
    lines.extend(initials)
    lines.append("$end")
    for tick in sorted(by_tick):
        lines.append(f"#{tick}")
        lines.extend(by_tick[tick])
    return "\n".join(lines) + "\n"
