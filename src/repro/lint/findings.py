"""Finding and severity types shared by every lint rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How a finding affects the exit status.

    ``ERROR`` findings fail the run; ``WARNING`` findings are reported but
    do not change the exit code.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location (``path`` is the file it anchors
    to)."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity.value}: {self.message}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
