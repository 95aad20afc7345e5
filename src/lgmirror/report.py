"""Pass/fail reporting shared by the verification suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


REPORT_SCHEMA = "report/1"
RUN_SCHEMA = "run-report/1"


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class Report:
    title: str
    verdicts: tuple[Verdict, ...]

    def __post_init__(self):
        object.__setattr__(self, "verdicts", tuple(self.verdicts))

    @property
    def passed(self) -> bool:
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)

    def failures(self) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if not v.passed)

    def as_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "title": self.title,
            "passed": self.passed,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def render(self) -> str:
        lines = [f"== {self.title} =="]
        for v in self.verdicts:
            mark = "PASS" if v.passed else "FAIL"
            line = f"{mark}  {v.name}"
            if v.detail:
                line += f"  ({v.detail})"
            lines.append(line)
        lines.append(f"{'ok' if self.passed else 'FAILED'}: "
                     f"{sum(v.passed for v in self.verdicts)}/{len(self.verdicts)} checks")
        return "\n".join(lines)


@dataclass
class RunReport:
    """One CLI invocation: the command echo, its reports, and timings."""

    command: str
    inputs: dict = field(default_factory=dict)
    reports: list[Report] = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.reports) and all(r.passed for r in self.reports)

    @property
    def exit_status(self) -> int:
        return 0 if self.passed else 1

    def as_dict(self) -> dict:
        return {
            "schema": RUN_SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "passed": self.passed,
            "reports": [r.as_dict() for r in self.reports],
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "artifacts": self.artifacts,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def render(self) -> str:
        parts = [r.render() for r in self.reports]
        parts.append(f"exit status {self.exit_status}")
        return "\n\n".join(parts)
