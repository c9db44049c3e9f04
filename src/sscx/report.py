"""Uniform pass/fail report record shared by all verification suites."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Report:
    suite: str
    params: dict
    expected: dict
    computed: dict
    status: str = "pass"
    elapsed_ms: int = 0

    @classmethod
    def make(cls, suite: str, params: dict, expected: dict, computed: dict) -> "Report":
        status = "pass" if expected == computed else "fail"
        return cls(suite, params, expected, computed, status)

    def to_ordered_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "expected": {k: self.expected[k] for k in sorted(self.expected)},
            "computed": {k: self.computed[k] for k in sorted(self.computed)},
            "status": self.status,
            "elapsed_ms": self.elapsed_ms,
        }
