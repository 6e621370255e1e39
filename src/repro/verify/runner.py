"""The differential runner: fan one case across the engine matrix.

:class:`DifferentialRunner` treats the reference pipeline as the oracle
and every :class:`~repro.verify.matrix.EngineVariant` as an
implementation under test. For each case it runs the oracle once, then
each variant, comparing canonical forms
(:mod:`repro.verify.canonical`). A mismatch — or a variant exception
where the oracle succeeds — is recorded as a :class:`Divergence` and,
unless disabled, minimised into a replayable
:class:`~repro.verify.shrink.Reproducer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.verify.canonical import canonical_text, first_divergence
from repro.verify.matrix import EngineVariant, OracleRunner, default_matrix
from repro.verify.shrink import DEFAULT_PROBE_BUDGET, Reproducer, minimise

if TYPE_CHECKING:
    from repro.core.results import SearchResult
    from repro.verify.cases import Case


@dataclass
class Divergence:
    """One engine variant departing from the oracle on one case.

    ``oracle_error`` marks the oracle itself raising on the case: then no
    variant was compared, and ``variant`` names the oracle.
    """

    case_id: str
    family: str
    seed: int
    variant: str
    detail: str
    oracle_text: str = ""
    variant_text: str = ""
    reproducer: Reproducer | None = None
    oracle_error: bool = False

    def summary(self) -> str:
        return f"{self.variant} diverges on {self.case_id}: {self.detail}"


@dataclass
class VerifyReport:
    """Aggregate outcome of one differential run (the CI artifact)."""

    cases_run: int = 0
    variant_names: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    oracle_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.oracle_errors

    @property
    def comparisons(self) -> int:
        return self.cases_run * len(self.variant_names)

    def summary(self) -> str:
        lines = [
            f"verify: {self.cases_run} cases x {len(self.variant_names)} variants "
            f"= {self.comparisons} comparisons",
            f"variants: {', '.join(self.variant_names)}",
        ]
        if self.oracle_errors:
            lines.append(f"ORACLE ERRORS: {len(self.oracle_errors)}")
            lines.extend(f"  {cid}: {msg}" for cid, msg in self.oracle_errors[:5])
        if self.divergences:
            lines.append(f"DIVERGENCES: {len(self.divergences)}")
            lines.extend(f"  {d.summary()}" for d in self.divergences[:10])
        else:
            lines.append("no divergences")
        return "\n".join(lines)


class DifferentialRunner:
    """Run cases across the engine matrix against the reference oracle.

    Parameters
    ----------
    variants:
        Implementations under test (defaults to the full matrix).
    shrink:
        Minimise each divergence into a reproducer (first divergence per
        variant only — later ones on the same variant are usually the
        same root cause, and shrinking is the expensive part).
    probe_budget:
        Oracle+variant probe pairs one minimisation may spend.
    stop_on_first:
        Abort the run at the first divergence (CI smoke mode reports
        everything; interactive triage usually wants the first case
        fast).
    """

    def __init__(
        self,
        variants: Sequence[EngineVariant] | None = None,
        *,
        shrink: bool = True,
        probe_budget: int = DEFAULT_PROBE_BUDGET,
        stop_on_first: bool = False,
    ) -> None:
        self.variants = list(variants) if variants is not None else default_matrix()
        self.oracle = OracleRunner()
        self.shrink = shrink
        self.probe_budget = probe_budget
        self.stop_on_first = stop_on_first

    # -- single case -------------------------------------------------------

    def run_case(self, case: "Case") -> list[Divergence]:
        """All divergences of one case (empty when conformant)."""
        try:
            oracle_result: "SearchResult | None" = self.oracle(case)
        except Exception as exc:
            return [
                Divergence(
                    case.case_id, case.family, case.seed, self.oracle.name,
                    f"oracle raised {type(exc).__name__}: {exc}",
                    oracle_error=True,
                )
            ]
        divergences: list[Divergence] = []
        for variant in self.variants:
            detail: str | None
            variant_text = ""
            try:
                result = variant.run_case(case)
            except Exception as exc:
                detail = f"variant raised {type(exc).__name__}: {exc}"
            else:
                detail = first_divergence(oracle_result, result)
                if detail is not None:
                    variant_text = canonical_text(result)
            if detail is not None:
                divergences.append(
                    Divergence(
                        case.case_id, case.family, case.seed, variant.name,
                        detail,
                        oracle_text=canonical_text(oracle_result),
                        variant_text=variant_text,
                    )
                )
        return divergences

    # -- batch -------------------------------------------------------------

    def run(
        self,
        cases: Iterable["Case"],
        progress: Callable[[str], None] | None = None,
    ) -> VerifyReport:
        """Run every case; shrink the first divergence of each variant."""
        report = VerifyReport(variant_names=[v.name for v in self.variants])
        shrunk: set[str] = set()
        for case in cases:
            report.cases_run += 1
            found = self.run_case(case)
            for div in found:
                if div.oracle_error:
                    report.oracle_errors.append((div.case_id, div.detail))
                    continue
                if self.shrink and div.variant not in shrunk:
                    shrunk.add(div.variant)
                    div.reproducer = self._minimise(case, div)
                report.divergences.append(div)
            if progress is not None:
                status = "DIVERGED" if found else "ok"
                progress(f"[{report.cases_run}] {case.describe()}: {status}")
            if found and self.stop_on_first:
                break
        return report

    def _minimise(self, case: "Case", div: Divergence) -> Reproducer:
        variant = next(v for v in self.variants if v.name == div.variant)
        return minimise(
            case,
            variant.name,
            self.oracle,
            variant.run_case,
            div.detail,
            probe_budget=self.probe_budget,
        )
