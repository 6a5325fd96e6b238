"""Self-contained run reports: named checks, each with its tolerance."""

import json
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    value: float | int | None = None
    tolerance: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "value": self.value,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def row(name, value, relation, bound=0.0, tolerance=None, detail="") -> Check:
    """The one verdict rule: 'at_most' passes value <= bound + tol, 'at_least'
    value >= bound - tol, 'within' both, each a comparison with an edge (so a NaN
    fails); tol is the tolerance, 0 (exact) when None."""
    tol = tolerance or 0.0
    passed = {"at_most": value <= bound + tol, "at_least": value >= bound - tol,
              "within": bound - tol <= value <= bound + tol}[relation]
    return Check(name, bool(passed), value, tolerance, detail)


def require(checks: list, error: type, what: str) -> None:
    """Raise ``error`` naming every failed check with its value and tolerance."""
    failed = [f"{c.name} = {c.value} (tol {c.tolerance})" for c in checks if not c.passed]
    if failed:
        raise error(f"{what} failed: " + "; ".join(failed))


@dataclass
class RunReport:
    command: str
    params: dict
    checks: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def attach_file(self, label: str, path: str) -> None:
        import hashlib  # its only user: every other process skips the import
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        self.artifacts[label] = {"path": path, "sha256": digest}

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "checks": [c.to_dict() for c in self.checks],
            "flags": self.flags,
            "artifacts": self.artifacts,
            "wall_time_s": self.wall_time_s,
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def print_lines(self) -> None:
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            tol = "" if c.tolerance is None else f" (tol {c.tolerance:g})"
            val = "" if c.value is None else f" value={c.value}"
            extra = f" [{c.detail}]" if c.detail else ""
            print(f"{mark} {c.name}{val}{tol}{extra}")
        for key, val in self.flags.items():
            print(f"FLAG {key} = {val}")
        print(f"{'OK' if self.passed else 'FAILED'} {self.command} ({self.wall_time_s:.3f}s)")
