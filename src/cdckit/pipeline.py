"""Run the full static pipeline: parse -> elaborate -> domains -> pairs ->
recognition -> classification.  One elaboration shared by every stage."""

from __future__ import annotations

from .constraints import ConstraintSet, parse_constraint_texts
from .domains import (assign_domains, extract_cdc_pairs, extract_rdc_pairs,
                      pairs_fingerprint, unclocked_crossings)
from .elaborate import elaborate
from .errors import ElabError
from .netlist import Netlist
from .rules import Analysis, run_structural
from .syncrec import classify_pairs, recognize
from .verilog import ParsedModule, parse_verilog


def analyze_netlist(netlist: Netlist, constraints: ConstraintSet) -> Analysis:
    domains = assign_domains(netlist, constraints)
    pairs = extract_cdc_pairs(netlist, domains, constraints)
    rdc = extract_rdc_pairs(netlist, domains, constraints)
    syncs = recognize(netlist, domains, pairs, constraints)
    status = classify_pairs(pairs, syncs, netlist)
    return Analysis(netlist, constraints, domains, pairs, rdc, syncs, status)


def analyze_sources(sources: list[tuple[str, str]],
                    constraints: str | list[tuple[str, str]],
                    top: str | None = None, *,
                    on_unresolved: str = "blackbox") -> Analysis:
    """`sources` is a list of (origin, text).  `constraints` is one
    `<constraints>` text or a list of (origin, text) read in order.  Without
    an explicit top, the single module that is instantiated nowhere is the
    top."""
    modules: list[ParsedModule] = []
    for origin, text in sources:
        modules.extend(parse_verilog(text, origin))
    if isinstance(constraints, str):
        constraints = [("<constraints>", constraints)]
    cs = parse_constraint_texts(constraints)
    if top is None:
        instantiated = {i.module for m in modules for i in m.instances}
        roots = [m.name for m in modules if m.name not in instantiated]
        if len(roots) != 1:
            raise ElabError(f"cannot infer top module; candidates: {roots}")
        top = roots[0]
    netlist = elaborate(modules, top, on_unresolved=on_unresolved)
    return analyze_netlist(netlist, cs)


def pairs_report(analysis: Analysis) -> dict:
    return {
        "fingerprint": pairs_fingerprint(analysis.pairs),
        "pairs": [p.to_dict(analysis.netlist) for p in analysis.pairs],
        "rdc_pairs": [p.to_dict(analysis.netlist) for p in analysis.rdc_pairs],
        "unclocked": unclocked_crossings(analysis.netlist, analysis.domains),
        "status": {pid: {"state": st.state, "sync": st.sync_id,
                         "kind": st.sync_kind,
                         "comb_disqualified": st.comb_disqualified,
                         "reason": st.reason}
                   for pid, st in sorted(analysis.status.items())},
    }


def syncs_report(analysis: Analysis) -> dict:
    return {"syncs": [s.to_dict(analysis.netlist) for s in analysis.syncs]}


def findings_report(analysis: Analysis) -> dict:
    findings = run_structural(analysis)
    return {"findings": [f.to_dict() for f in findings]}
