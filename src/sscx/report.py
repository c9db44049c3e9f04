"""Uniform pass/fail report record shared by all verification suites."""

from __future__ import annotations

from typing import NamedTuple


class Report(NamedTuple):
    suite: str
    params: dict
    expected: dict
    computed: dict

    @property
    def status(self) -> str:
        return "pass" if self.expected == self.computed else "fail"

    def to_ordered_dict(self) -> dict:
        """The report's NDJSON record; ``elapsed_ms`` is reserved and always 0."""
        return {
            "suite": self.suite,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "expected": {k: self.expected[k] for k in sorted(self.expected)},
            "computed": {k: self.computed[k] for k in sorted(self.computed)},
            "status": self.status,
            "elapsed_ms": 0,
        }
