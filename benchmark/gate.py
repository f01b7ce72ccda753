"""Correctness gate, run after the timed region.

A *wrong number* (a beta off its closed form or the brute-force reference,
routes that disagree, a wrong verdict, an output that changes between
rounds) makes the whole run incorrect.  A *failure* (a traceback or an
unexpected exit code) is counted against the instance and listed by name,
but does not stop the run, so defects that are already known show in the
numbers.  Every wrong number is a failure too.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

import metricgap as mg
from metricgap import cli

from workloads import NONSTRICT, STRICT, VERDICTS, Instance

REL_TOL = 1e-9


def load_oracles(root: Path):
    """tests/oracles.py, the test suite's primitive reference code."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def _b_matrix(space: mg.MetricSpace, p: float) -> np.ndarray:
    return mg.build_B(mg.power_matrix(space, p)).B.a


class Gate:
    def __init__(self, beta_brute, inject_fault: bool = False):
        self.beta_brute = beta_brute
        self.inject_fault = inject_fault
        self.failures: dict[str, str] = {}
        self.wrong: dict[str, str] = {}
        self.closed_form_errors: list[float] = []
        self._first_outcome: dict[str, object] = {}

    @property
    def correct(self) -> bool:
        return not self.wrong

    def fail(self, name: str, reason: str, wrong: bool = False) -> None:
        self.failures.setdefault(name, reason)
        if wrong:
            self.wrong.setdefault(name, reason)

    def _oracle_beta(self, family: tuple) -> float:
        kind, arg = family
        if kind == "tree":
            beta = mg.gamma_tree(arg).beta
        elif kind == "cycle":
            beta = mg.gamma_cycle(arg).beta
        else:
            beta = mg.gamma_discrete(arg).beta
        if self.inject_fault:
            # Skew the first comparison, as `metricgap oracle --inject-fault`
            # does, to show that the gate can fail.
            self.inject_fault = False
            beta *= 1.0 + 1e-3
        return beta

    def _closed_form(self, name: str, beta: float, family: tuple) -> None:
        err = _rel(beta, self._oracle_beta(family))
        self.closed_form_errors.append(err)
        if err > REL_TOL:
            self.fail(name, f"beta {beta!r} is {err:.2e} off the closed form", wrong=True)

    def _routes(self, name: str, beta: float, opnorm, binary) -> None:
        for label, other in (("opnorm", opnorm), ("binary", binary)):
            if other is None or _rel(other, beta) > REL_TOL:
                self.fail(name, f"{label} beta {other!r} disagrees with {beta!r}", wrong=True)

    def _witness(self, name: str, beta: float, y0, n: int) -> None:
        y0 = np.asarray(y0, dtype=float)
        if y0.shape != (n,) or _rel(float(np.abs(y0).sum()), beta) > REL_TOL:
            self.fail(name, "witness 1-norm does not equal beta", wrong=True)

    def check_enum(self, inst: Instance, r: mg.GapResult) -> None:
        name = inst.name
        if r.method != "gray_scan" or r.gamma != 2.0 / r.beta:
            self.fail(name, f"method {r.method}, gamma {r.gamma!r} != 2/beta", wrong=True)
        b = _b_matrix(inst.space, inst.p)
        if float(r.s_star @ b @ r.s_star) != r.beta:
            self.fail(name, "beta is not the canonical value of s_star", wrong=True)
        self._routes(name, r.beta, r.beta_by_opnorm, r.beta_by_binary)
        self._witness(name, r.beta, r.witness_y0, inst.n)
        if inst.family is not None:
            self._closed_form(name, r.beta, inst.family)

    def check_bnb(self, inst: Instance, r: mg.GapResult, bnb: mg.BnbResult) -> None:
        name = inst.name
        if r.method != "branch_and_bound" or r.beta != bnb.beta or r.bnb_certified != bnb.certified:
            self.fail(name, f"method {r.method} or result differs from branch_and_bound", wrong=True)
        b = _b_matrix(inst.space, inst.p)
        if float(r.s_star @ b @ r.s_star) != r.beta:
            self.fail(name, "incumbent is not float(s @ B @ s)", wrong=True)
        if not bnb.certified and bnb.best_bound < r.beta:
            self.fail(name, "uncertified bound below its incumbent", wrong=True)
        if inst.family is None:
            return
        if bnb.certified:
            self._closed_form(name, r.beta, inst.family)
            return
        oracle = self._oracle_beta(inst.family)
        if r.beta > oracle * (1.0 + REL_TOL) or bnb.best_bound < oracle * (1.0 - REL_TOL):
            self.fail(name, f"closed form {oracle!r} outside [{r.beta!r}, {bnb.best_bound!r}]",
                      wrong=True)

    def check_sweep(self, doc: Instance, outcome) -> None:
        name = doc.name
        first = self._first_outcome.setdefault(name, outcome)
        if first is not outcome:
            if outcome != first:
                self.fail(name, "output differs between rounds", wrong=True)
            return
        if outcome.error is not None:
            self.fail(name, f"traceback: {outcome.error}")
            return
        if outcome.code not in doc.codes:
            self.fail(name, f"exit {outcome.code}, expected {doc.codes}")
            return
        if doc.expect not in VERDICTS:
            return
        report = json.loads(outcome.stdout)
        if report["verdict"] != VERDICTS[doc.expect] or report["n"] != doc.n:
            self.fail(name, f"verdict {report['verdict']} n={report['n']}", wrong=True)
            return
        if doc.expect == NONSTRICT and report["gamma"] != 0.0:
            self.fail(name, f"non-strict gamma {report['gamma']!r}", wrong=True)
        if doc.expect != STRICT:
            return
        beta = report["beta"]
        space, _ = cli.realize(cli.parse_input(doc.text))
        ref_beta, ref_s = self.beta_brute(_b_matrix(space, doc.p))
        if beta != ref_beta or report["s_star"] != ref_s.tolist():
            self.fail(name, f"beta {beta!r} or s_star differs from beta_brute {ref_beta!r}",
                      wrong=True)
        if report["gamma"] != 2.0 / beta:
            self.fail(name, "gamma != 2/beta", wrong=True)
        checks = report["cross_checks"]
        self._routes(name, beta, checks.get("beta_opnorm"), checks.get("beta_binary"))
        self._witness(name, beta, report["witness"], doc.n)
        if doc.family is not None and doc.p == 1.0:
            self._closed_form(name, beta, doc.family)
