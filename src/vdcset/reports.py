"""Self-contained run reports: named checks, each with its tolerance."""

import hashlib
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

    def add(self, name, passed, value=None, tolerance=None, detail="") -> Check:
        check = Check(name, bool(passed), value, tolerance, detail)
        self.checks.append(check)
        return check

    def attach_file(self, label: str, path: str) -> None:
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
