"""Exception hierarchy shared by all toolkit stages."""

from __future__ import annotations


class CdcError(Exception):
    """Base class for every toolkit error."""


# --- front end -------------------------------------------------------------

class ParseError(CdcError):
    """Syntax error in an input file, or in an option value when `line` is 0
    (no position is printed then)."""

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 origin: str = "<input>", expected: str | None = None):
        self.line = line
        self.column = column
        self.origin = origin
        self.expected = expected
        super().__init__(f"{origin}:{line}:{column}: {message}" if line else message)


class UnsupportedConstruct(ParseError):
    """Input uses a construct outside the supported language subset."""

    def __init__(self, construct: str, line: int = 0, column: int = 0,
                 origin: str = "<input>"):
        self.construct = construct
        super().__init__(f"unsupported construct: {construct}",
                         line, column, origin)


class DuplicateModule(ParseError):
    pass


class DuplicateClock(ParseError):
    pass


class BadPeriod(ParseError):
    pass


class UnknownOption(ParseError):
    pass


# --- elaboration / netlist -------------------------------------------------

class ElabError(CdcError):
    """Error while flattening parsed modules into a netlist."""


class UnresolvedModule(ElabError):
    pass


class RecursiveInstantiation(ElabError):
    pass


class PortWidthMismatch(ElabError):
    """Width conflict at a port binding or inside an expression."""


class MultipleDrivers(ElabError):
    pass


class CombinationalLoop(ElabError):
    pass


# --- analysis --------------------------------------------------------------

class AnalysisError(CdcError):
    """Domain assignment or pair extraction failed."""


class UndeclaredClock(AnalysisError):
    pass


# --- simulation ------------------------------------------------------------

class StimulusOutOfRange(CdcError):
    pass


class DecisionBudgetExceeded(CdcError):
    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(f"exploration needs {count} decisions, budget is {budget}")


class BranchCapExceeded(CdcError):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"exploration needs more than the branch cap of {cap} branches")


class SimDivergence(CdcError):
    """Internal consistency assertion of the simulator; should never fire."""


# --- coverage --------------------------------------------------------------

class UnknownPair(CdcError):
    pass


class FingerprintMismatch(CdcError):
    pass


# --- code generation -------------------------------------------------------

class NameCollision(CdcError):
    pass


# --- corpus ----------------------------------------------------------------

class MissingLabel(CdcError):
    pass
