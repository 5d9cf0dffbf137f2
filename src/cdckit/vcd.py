"""Minimal VCD change-dump writer for simulation waveforms."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from operator import getitem, itemgetter, ne

from .netlist import Netlist

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _var_id(n: int) -> str:
    out = ""
    while True:
        out = _ID_CHARS[n % len(_ID_CHARS)] + out
        n //= len(_ID_CHARS)
        if n == 0:
            return out


class _Lines(dict):
    """The value-change lines of one net wider than a bit, by value, each
    formatted on its first use."""
    __slots__ = ("format",)

    def __init__(self, width: int, vid: str):
        braced = vid.replace("{", "{{").replace("}", "}}")
        self.format = f"b{{:0{width}b}} {braced}".format

    def __missing__(self, value: int) -> str:
        text = self[value] = self.format(value)
        return text


def write_vcd(netlist: Netlist, ticks: Sequence[int], frames: list[list[int]],
              timescale: str = "1ns") -> str:
    """Render a run's frames as VCD text: `frames[0]` holds every net's
    value before the first tick, the time-zero dump, and `frames[i + 1]`
    the values after tick `ticks[i]`.

    One pass in tick order puts each frame in net-name order (one
    `itemgetter`), dumps the nets whose value differs from the frame
    before, and takes each change line from its net's table of value ->
    line: a pair for a 1-bit net, and for a wider one a dict that a value
    fills on its first use.  Hierarchical separators in net names are kept
    as dots, which common viewers split into scopes themselves.
    """
    nets = netlist.nets
    order = sorted(range(len(nets)), key=lambda i: nets[i].name)
    lines = ["$version cdckit $end", f"$timescale {timescale} $end",
             f"$scope module {netlist.name} $end"]
    tables: list = []       # per net in name order
    for k, n in enumerate(order):
        net = nets[n]
        vid = _var_id(k)
        ref = net.name if net.width == 1 else f"{net.name}[{net.width - 1}:0]"
        lines.append(f"$var wire {net.width} {vid} {ref} $end")
        tables.append(("0" + vid, "1" + vid) if net.width == 1 else _Lines(net.width, vid))
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    if len(order) > 1:
        permute = itemgetter(*order)
    else:       # itemgetter of one index gives the item, not a tuple
        def permute(values):
            return tuple(values[n] for n in order)
    prev = permute(frames[0])
    lines.append("$dumpvars")
    lines.extend(map(getitem, tables, prev))
    lines.append("$end")
    in_order = range(len(order))
    append = lines.append
    for tick, frame in zip(ticks, frames[1:]):
        cur = permute(frame)
        if cur != prev:
            append(f"#{tick}")
            for k in compress(in_order, map(ne, cur, prev)):
                append(tables[k][cur[k]])
        prev = cur
    return "\n".join(lines) + "\n"
