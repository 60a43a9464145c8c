"""Worked fixed-point examples: engine traces against independent oracles.

An ExampleCase packages a pair of module endomorphisms (the induced maps on
the even and odd halves of an invariant) with an oracle that recomputes the
expected alternating trace by a route of its own: counting transverse fixed
points, tracing chain-level matrices, evaluating a characteristic
polynomial, or summing frozen weights.  run_case computes

    trace(even endomorphism) - trace(odd endomorphism)

through resolutions and chain lifts, pushes the value through an optional
ring map, and compares it with the oracle's answer by exact equality.

The built-in catalog is shipped as text files next to this module and
parsed by the same grammar the command line accepts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources

from .modules import ModuleHom
from .oracles import ORACLES, OracleError
from .rings import RingElement, RingMap, RingSpec
from .trace import hs_trace


@dataclass
class ExampleCase:
    """One trace identity: engine value vs oracle value."""

    name: str
    title: str
    even: ModuleHom
    odd: ModuleHom
    oracle_name: str
    oracle_payload: list
    ring_map: RingMap | None = None
    note: str = ""

    def __post_init__(self) -> None:
        for label, endo in (("even", self.even), ("odd", self.odd)):
            if endo.source != endo.target:
                raise ValueError(f"{label} part of case {self.name} is not an endomorphism")
        if self.even.ring != self.odd.ring:
            raise ValueError(f"case {self.name}: even and odd parts use different rings")
        if self.even.degree != self.odd.degree:
            raise ValueError(f"case {self.name}: even and odd degrees differ")
        if self.ring_map is not None and self.ring_map.source != self.even.ring:
            raise ValueError(f"case {self.name}: ring map does not start at the case ring")

    @property
    def ring(self) -> RingSpec:
        return self.even.ring

    @property
    def comparison_ring(self) -> RingSpec:
        return self.ring_map.target if self.ring_map else self.ring


@dataclass
class RunReport:
    name: str
    title: str
    engine_value: RingElement | None
    oracle_value: RingElement | None
    matched: bool
    seconds: float
    note: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.matched and not self.error

    def line(self) -> str:
        if self.error:
            status = "ERROR"
        elif self.matched:
            status = "ok"
        else:
            status = "MISMATCH"
        body = f"{self.name:<28} {status:<9} {self.seconds:7.3f}s"
        if self.error:
            return f"{body}  {self.error}"
        return f"{body}  engine={self.engine_value}  oracle={self.oracle_value}"


def run_case(case: ExampleCase) -> RunReport:
    """Compute both sides of one case and compare exactly."""
    start = time.perf_counter()
    try:
        oracle = ORACLES.get(case.oracle_name)
        if oracle is None:
            raise OracleError(f"unknown oracle {case.oracle_name!r}")
        even_trace = hs_trace(case.even)
        odd_trace = hs_trace(case.odd)
        engine_value = even_trace.value - odd_trace.value
        if case.ring_map is not None:
            engine_value = case.ring_map(engine_value)
        oracle_value = oracle(case.comparison_ring, case.oracle_payload)
        matched = engine_value == oracle_value
        return RunReport(
            case.name,
            case.title,
            engine_value,
            oracle_value,
            matched,
            time.perf_counter() - start,
            case.note,
        )
    except Exception as exc:  # surface, do not crash the suite
        return RunReport(
            case.name,
            case.title,
            None,
            None,
            False,
            time.perf_counter() - start,
            case.note,
            error=f"{type(exc).__name__}: {exc}",
        )


@dataclass
class SuiteReport:
    reports: list[RunReport] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.reports)

    @property
    def mismatches(self) -> list[RunReport]:
        return [r for r in self.reports if not r.matched and not r.error]

    @property
    def errors(self) -> list[RunReport]:
        return [r for r in self.reports if r.error]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def summary(self) -> str:
        good = sum(1 for r in self.reports if r.ok)
        return (
            f"{good}/{self.total} matched, "
            f"{len(self.mismatches)} mismatched, {len(self.errors)} errors"
        )


def run_suite(cases: list[ExampleCase]) -> SuiteReport:
    return SuiteReport([run_case(c) for c in cases])


def builtin_catalog() -> dict[str, ExampleCase]:
    """Parse every shipped .case file into a new dict that the caller owns.

    Names are unique across the catalog.  Each call parses the files again.
    """
    from . import textio  # late import: textio needs ExampleCase from here

    cases: dict[str, ExampleCase] = {}
    root = resources.files("gradedtrace").joinpath("catalog")
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".case"):
            continue
        doc = textio.parse_source(entry.read_text(), filename=entry.name)
        for name, case in doc.cases.items():
            if name in cases:
                raise ValueError(f"duplicate case name {name} in {entry.name}")
            cases[name] = case
    return cases
