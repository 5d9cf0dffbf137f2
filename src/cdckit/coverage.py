"""Per-crossing coverage: four bins per bit, {setup,hold} x {0,1}.

A database is keyed by the fingerprint of the pair list it was produced
against; merging databases with different fingerprints is refused.  Bins
count metastability-injection resolutions: a setup resolution to logic 0 at
the destination hits `setup0`, and so on.  Values are plain counters, so
merge is an associative, commutative counter sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import FingerprintMismatch, ParseError, UnknownPair
from .jsonout import dumps

BINS = ("setup0", "setup1", "hold0", "hold1")


def bin_name(kind: str, resolved: int) -> str:
    return f"{'setup' if kind == 'setup' else 'hold'}{resolved & 1}"


@dataclass
class CoverageDb:
    fingerprint: str
    scope: str = "sim"
    pair_ids: tuple[str, ...] = ()
    bins: dict[str, dict[int, dict[str, int]]] = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)
    edges: dict[str, int] = field(default_factory=dict)

    def record(self, pair_id: str, bit: int, kind: str, resolved: int) -> None:
        if pair_id not in self.pair_ids:
            raise UnknownPair(f"pair {pair_id!r} is not part of this database")
        per_bit = self.bins.setdefault(pair_id, {}).setdefault(bit, {})
        name = bin_name(kind, resolved)
        per_bit[name] = per_bit.get(name, 0) + 1

    def count(self, pair_id: str, bit: int, name: str) -> int:
        return self.bins.get(pair_id, {}).get(bit, {}).get(name, 0)

    def total(self) -> int:
        return sum(c for per_pair in self.bins.values()
                   for per_bit in per_pair.values() for c in per_bit.values())

    def to_json_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "scope": self.scope,
            "pairs": list(self.pair_ids),
            "seeds": list(self.seeds),
            "edges": {k: self.edges[k] for k in sorted(self.edges)},
            "bins": {
                pid: {str(bit): {name: per_bit.get(name, 0) for name in BINS}
                      for bit, per_bit in sorted(self.bins[pid].items())}
                for pid in sorted(self.bins)
            },
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict()) + "\n"

    @staticmethod
    def from_json_dict(d: dict) -> "CoverageDb":
        db = CoverageDb(d["fingerprint"], d.get("scope", "sim"),
                        tuple(d.get("pairs", ())))
        db.seeds = list(d.get("seeds", ()))
        db.edges = dict(d.get("edges", {}))
        for pid, per in d.get("bins", {}).items():
            db.bins[pid] = {int(bit): {k: v for k, v in cnt.items() if v}
                            for bit, cnt in per.items()}
        return db

    @staticmethod
    def from_json(text: str, origin: str = "<coverage>") -> "CoverageDb":
        """A database from its JSON text; malformed text raises ParseError."""
        d = parse_json(text, origin)
        try:
            return CoverageDb.from_json_dict(d)
        except (KeyError, AttributeError, TypeError, ValueError) as e:
            raise ParseError(f"{origin}: not a coverage database "
                             f"({type(e).__name__}: {e})", origin=origin) from None


def parse_json(text: str, origin: str):
    """JSON text, with a decode error raised as a positioned ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno, origin) from None


def merge(a: CoverageDb, b: CoverageDb, scope: str | None = None) -> CoverageDb:
    """Counter-wise sum into a new database, leaving both inputs as they
    were; requires identical netlist fingerprints."""
    if a.fingerprint != b.fingerprint:
        raise FingerprintMismatch(
            f"cannot merge coverage for different pair sets "
            f"({a.fingerprint} vs {b.fingerprint})")
    out = CoverageDb(a.fingerprint, scope if scope is not None else a.scope,
                     tuple(dict.fromkeys(a.pair_ids + b.pair_ids)),
                     seeds=a.seeds + b.seeds)
    for db in (a, b):
        for pid, per in db.bins.items():
            for bit, cnt in per.items():
                dst = out.bins.setdefault(pid, {}).setdefault(bit, {})
                for name, c in cnt.items():
                    dst[name] = dst.get(name, 0) + c
        for k, v in db.edges.items():
            out.edges[k] = out.edges.get(k, 0) + v
    return out


def report(db: CoverageDb, pairs: list[dict]) -> dict:
    """Coverage report against a pairs listing (dicts with id/width/suppressed)."""
    listed = {p["id"] for p in pairs}
    if set(db.pair_ids) - listed:
        raise FingerprintMismatch("database mentions pairs absent from the pair report")
    per_pair = []
    zero = []
    suppressed = []
    total_bins = 0
    total_hit = 0
    for p in sorted(pairs, key=lambda d: d["id"]):
        if p.get("suppressed"):
            suppressed.append(p["id"])
            continue
        width = p["width"]
        denom = 4 * width
        hit = 0
        by_bit = {}
        for bit in range(width):
            names = [n for n in BINS if db.count(p["id"], bit, n) > 0]
            hit += len(names)
            by_bit[str(bit)] = names
        total_bins += denom
        total_hit += hit
        percent = 100.0 * hit / denom
        if hit == 0:
            zero.append(p["id"])
        per_pair.append({
            "id": p["id"], "width": width, "bins_hit": hit, "bins_total": denom,
            "percent": round(percent, 2), "by_bit": by_bit,
        })
    return {
        "scope": db.scope,
        "fingerprint": db.fingerprint,
        "pairs": per_pair,
        "zero_coverage": zero,
        "suppressed": suppressed,
        "totals": {
            "bins_hit": total_hit,
            "bins_total": total_bins,
            "percent": round(100.0 * total_hit / total_bins, 2) if total_bins else 0.0,
        },
    }


def format_report_text(rep: dict) -> str:
    lines = [f"CDC coverage [{rep['scope']}] fingerprint={rep['fingerprint']}"]
    for p in rep["pairs"]:
        lines.append(f"  {p['id']:8s} {p['bins_hit']:3d}/{p['bins_total']:<3d} "
                     f"{p['percent']:6.2f}%")
    if rep["suppressed"]:
        lines.append("  suppressed: " + ", ".join(rep["suppressed"]))
    if rep["zero_coverage"]:
        lines.append("  zero coverage: " + ", ".join(rep["zero_coverage"]))
    t = rep["totals"]
    lines.append(f"  total {t['bins_hit']}/{t['bins_total']} = {t['percent']:.2f}%")
    return "\n".join(lines) + "\n"
