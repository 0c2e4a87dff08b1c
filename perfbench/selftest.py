"""Self-test of the benchmark's checks: ``python3 perfbench/run.py --selftest``.

Runs each operation kind once at d <= 4 and shows that

* the oracle reproduces the README's closed form
  S(|+><+| || diag(3/4, 1/4)) = -ln(3/16)/2 = 0.8369882167858...,
* every check accepts the program's genuine output, and
* every check rejects a deliberately perturbed copy of it.
"""

from __future__ import annotations

import copy
import json
import math
import re
from pathlib import Path

import numpy as np

import oracle

CLOSED_FORM = 0.8369882167858


class SelfTestFailure(Exception):
    pass


def _sub(text: str, pattern: str, repl) -> str:
    """Replace the first match of ``pattern``; the pattern must match."""
    new, n = re.subn(pattern, repl, text, count=1, flags=re.MULTILINE)
    if n != 1:
        raise SelfTestFailure(f"perturbation pattern {pattern!r} did not match")
    return new


def _bump(m: re.Match) -> str:
    """Move the number in group 2 by 1e-6, keeping groups 1 and 3."""
    return f"{m.group(1)}{float(m.group(2)) + 1e-6:.12g}{m.group(3)}"


def _closed_form(work: Path) -> oracle.Case:
    a = np.array([[1.0], [1.0]], dtype=complex) / math.sqrt(2.0)
    s = np.array([0.75, 0.25])
    value = oracle.relative_entropy(np.array([1.0]), a, s, np.eye(2, dtype=complex))
    if not (abs(value - CLOSED_FORM) < 1e-12 and abs(value + 0.5 * math.log(3 / 16)) < 1e-15):
        raise SelfTestFailure(f"oracle gives {value!r} for the closed form")
    rho, sigma = work / "plus.json", work / "diag.json"
    rho.write_text(json.dumps({"dim": 2, "matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]}))
    sigma.write_text(json.dumps({"dim": 2, "matrix": [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]}))
    print(f"ok   oracle closed form {value!r}")
    return oracle.Case("closed-form", 2, str(rho), str(sigma), "1,1", None, 1, 2, value, (0.75, 0.25), (0.5, 0.5))


def _expect(check, label: str, *args) -> None:
    try:
        check(*args)
    except oracle.CheckError:
        print(f"ok   rejects {label}")
        return
    raise SelfTestFailure(f"check accepted {label}")


def main(work: Path, call) -> int:
    work.mkdir(parents=True)
    try:
        run_checks(work, call)
    except (SelfTestFailure, oracle.CheckError) as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


def run_checks(work: Path, call) -> None:
    cases = [_closed_form(work)] + oracle.build_cases(np.random.default_rng(0), (2, 4), work)
    outputs = {}
    for case in cases:
        rc, out, _ = call(["compute", case.rho, case.sigma])
        oracle.check_compute(case, rc, out)
        rc_b, out_b, _ = call(case.breakdown_argv())
        oracle.check_breakdown(case, rc_b, out_b)
        outputs[case.name] = (out, out_b)
    print(f"ok   compute and breakdown pass on {len(cases)} cases")

    dims, trials = (2, 3, 4), 12
    reports = {}
    for identity in oracle.IDENTITIES:
        out_path = work / f"verify_{identity}.json"
        argv = ["verify", identity, "--dims", "2,3,4", "--trials", str(trials), "--seed", "0",
                "--include-infinite", "--threads", "1", "--out", str(out_path)]
        rc, _, _ = call(argv)
        reports[identity] = json.loads(out_path.read_text())
        oracle.check_verify(identity, dims, trials, rc, reports[identity])
    print("ok   verify passes for all seven identities")

    finite = next(c for c in cases if c.name == "d4-rot-fin")
    infinite = next(c for c in cases if c.name == "d4-comp-inf")
    out, out_b = outputs[finite.name]
    inf_out, inf_out_b = outputs[infinite.name]
    value_line = r"^(S\(rho\|\|sigma\) = )(\S+)( nats)$"
    _expect(oracle.check_compute, "a perturbed value", finite, 0, _sub(out, value_line, _bump))
    _expect(oracle.check_compute, "a wrong support rank", finite, 0,
            _sub(out, r"^(sigma:.*support rank )(\d+)", lambda m: f"{m.group(1)}{int(m.group(2)) + 1}"))
    _expect(oracle.check_compute, "a flipped support verdict", finite, 0, _sub(out, r": yes$", ": no"))
    _expect(oracle.check_compute, "a finite value for an infinite case", infinite, 0,
            _sub(inf_out, value_line, r"\g<1>0.5\g<3>"))
    _expect(oracle.check_compute, "a nonzero exit code", finite, 2, out)

    _expect(oracle.check_breakdown, "a perturbed direct value", finite, 0,
            _sub(out_b, r"^(S\(rho\|\|sigma\), direct\s+= )(\S+)()$", _bump))
    _expect(oracle.check_breakdown, "a perturbed w_k", finite, 0,
            _sub(out_b, r"^(  1\s+)(\S+)(\s+\S+\s*)$", _bump))
    _expect(oracle.check_breakdown, "a perturbed p_k", finite, 0,
            _sub(out_b, r"^(  1\s+\S+\s+)(\S+)(\s*)$", _bump))
    _expect(oracle.check_breakdown, "a residual above tol.identity", finite, 0,
            _sub(out_b, r"^(residual \|lhs - rhs\|\s+= )(\S+)", r"\g<1>2e-08"))
    _expect(oracle.check_breakdown, "a finite rhs for an infinite case", infinite, 0,
            _sub(inf_out_b, r"^(rhs total\s+= )inf$", r"\g<1>1.5"))

    report = reports["theorem1"]

    def edited(edit) -> dict:
        doc = copy.deepcopy(report)
        edit(doc)
        return doc

    def record(doc, trial):
        return next(r for r in doc["records"] if r["dim"] == 3 and r["trial"] == trial)

    def set_failures(doc):
        doc["summary"]["failures"] = 1

    def residual_above(doc):
        record(doc, 0)["residual"] = 2 * doc["config"]["tolerances"]["identity"]

    def mismatch(doc):
        record(doc, 2)["residual"] = "infinite-mismatch"

    def slot_finite(doc):
        record(doc, 5)["residual"] = 0.0

    def extra_infinite(doc):
        record(doc, 4)["residual"] = "infinite-consistent"

    def dropped(doc):
        doc["records"].pop()

    check = oracle.check_verify
    _expect(check, "a failing exit code", "theorem1", dims, trials, 1, report)
    _expect(check, "a report with failures", "theorem1", dims, trials, 0, edited(set_failures))
    _expect(check, "a residual above tol.identity", "theorem1", dims, trials, 0, edited(residual_above))
    _expect(check, "an infinite-mismatch", "theorem1", dims, trials, 0, edited(mismatch))
    _expect(check, "a finite record in an infinite slot", "theorem1", dims, trials, 0, edited(slot_finite))
    _expect(check, "an infinite record outside the slots", "theorem1", dims, trials, 0, edited(extra_infinite))
    _expect(check, "a missing record", "theorem1", dims, trials, 0, edited(dropped))
    _expect(check, "a known failure that passed", "theorem1", dims, trials, 1, report, frozenset({(3, 0)}))
