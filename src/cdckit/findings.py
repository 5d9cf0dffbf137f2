"""Finding records and the fixed structural rule catalog."""

from __future__ import annotations

from dataclasses import dataclass

# rule id -> default severity
RULES: dict[str, str] = {
    "MISSING_SYNC": "error",
    "COMB_ON_CDC": "error",
    "MISSING_RDC_SYNC": "error",
    "COMB_ON_RDC": "error",
    "RESET_CONVERGENCE": "error",
    "CONVERGENCE": "warning",
    "DIVERGENCE": "warning",
    "STATIC_NOT_CONSTRAINED": "info",
    "GATED_CLOCK_GLITCH": "warning",
    "BLACKBOX_BOUNDARY": "warning",
}

# Diagnostics that are not lint rules but share the severity-override keyspace.
NOTE_IDS = {"DATA_ON_CLOCK"}

SEVERITIES = ("error", "warning", "info")


@dataclass(slots=True, unsafe_hash=True)
class Finding:
    rule: str
    severity: str
    subjects: tuple[str, ...]          # hierarchical names of nets/cells
    message: str
    witness: tuple[str, ...]           # cells/nets demonstrating the issue
    pair_ids: tuple[str, ...] = ()
    sync_ids: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "subjects": list(self.subjects),
            "message": self.message,
            "witness": list(self.witness),
            "pairs": list(self.pair_ids),
            "syncs": list(self.sync_ids),
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.rule, f.subjects, f.witness))
