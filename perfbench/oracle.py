"""Benchmark inputs built apart from qrelent, and checks of qrelent's outputs.

Every state here is assembled with numpy from a chosen spectrum and a
chosen unitary, so the expected answers come from the construction and
not from the program under test:

    S(rho||sigma) = sum_i r_i ln r_i - sum_ij r_i |<a_i|b_j>|^2 ln s_j,

with ``rho = sum_i r_i |a_i><a_i|`` and ``sigma = sum_j s_j |b_j><b_j|``;
it is ``inf`` exactly when the construction put mass of ``rho`` outside
the span of the ``b_j`` with ``s_j > 0``.  Nothing in this module
imports qrelent.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Printed values carry 12 significant digits; identity residuals are
# gated at the program's default ``tol.identity``.
VALUE_TOL = 1e-8
IDENTITY_TOL = 1e-8
IDENTITIES = ("lemma1", "eq3a", "theorem1", "corollary1", "corollary2", "corollary3", "theorem2")
INFINITE_SLOT_IDENTITIES = ("theorem1", "corollary3")


class CheckError(Exception):
    """An output of the program disagrees with the oracle."""


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Ginibre matrix with phases fixed."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def floored_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` positive weights summing to 1, each at least ``1/(2 + n)``."""
    x = rng.dirichlet(np.ones(n)) + 0.5
    return x / x.sum()


def relative_entropy(r, a, s, b) -> float:
    """The finite S(rho||sigma) from eigen-data.

    ``r``/``a`` are the nonzero eigenvalues and eigenvector columns of
    rho, ``s``/``b`` the full spectrum and eigenbasis of sigma.  The sum
    runs over ``s_j > 0``; whether the value is finite at all is decided
    by the construction, not here.
    """
    overlap = np.abs(a.conj().T @ b) ** 2  # |<a_i|b_j>|^2
    keep = s > 0
    first = math.fsum(float(x) * math.log(float(x)) for x in r)
    second = math.fsum((np.asarray(r)[:, None] * overlap[:, keep] * np.log(s[keep])[None, :]).ravel().tolist())
    return first - second


def block_sizes(dim: int) -> tuple[int, ...]:
    """Near-equal block sizes: two blocks below d=8, three from d=8 on."""
    k = 2 if dim < 8 else 3
    return tuple(dim // k + (1 if i < dim % k else 0) for i in range(k))


@dataclass(frozen=True)
class Case:
    """One (rho, sigma, blocks) input of ``compute`` and ``breakdown``.

    ``value`` is the oracle S(rho||sigma), ``None`` for ``inf``;
    ``weights`` are ``w_k = tr(sigma B_k)`` and ``p`` are
    ``p_k = tr(rho Q_k)`` with ``Q_k`` the support of sigma's block k.
    """

    name: str
    dim: int
    rho: str
    sigma: str
    blocks: str | None
    blocks_file: str | None
    rho_rank: int
    sigma_rank: int
    value: float | None
    weights: tuple[float, ...]
    p: tuple[float, ...]

    def breakdown_argv(self) -> list[str]:
        if self.blocks is not None:
            return ["breakdown", self.rho, self.sigma, "--blocks", self.blocks]
        return ["breakdown", self.rho, self.sigma, "--blocks-file", self.blocks_file]


def _rows(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _hermitian(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    m = (v * w) @ v.conj().T
    return (m + m.conj().T) / 2.0


def build_case(rng: np.random.Generator, dim: int, rotated: bool, infinite: bool, out_dir: Path) -> Case:
    """Build one case and write its files into ``out_dir``.

    sigma is block diagonal in a frame ``W`` (the computational basis,
    or a Haar frame when ``rotated``).  Its largest block loses one
    support dimension except in the computational finite case, where
    sigma has full rank.  rho has full rank when it must leak into that
    kernel (``infinite``) or when sigma has full rank; otherwise it is
    a rank ``ceil(r/2)`` state inside supp(sigma).
    """
    sizes = block_sizes(dim)
    kernel = rotated or infinite
    frame = haar(rng, dim) if rotated else np.eye(dim, dtype=complex)
    raw_w = rng.dirichlet(np.ones(len(sizes))) + 0.5
    ranks = [m - 1 if (kernel and k == 0) else m for k, m in enumerate(sizes)]
    raw_w = np.where(np.array(ranks) > 0, raw_w, 0.0)
    weights = raw_w / raw_w.sum()

    b = np.zeros((dim, dim), dtype=complex)
    s = np.zeros(dim)
    owner = np.zeros(dim, dtype=int)
    start = 0
    for k, (m, r) in enumerate(zip(sizes, ranks)):
        b[:, start : start + m] = frame[:, start : start + m] @ haar(rng, m)
        if r > 0:
            s[start : start + r] = weights[k] * floored_spectrum(rng, r)
        owner[start : start + m] = k
        start += m

    support = b[:, s > 0]
    if infinite or not kernel:
        a = haar(rng, dim)
        r_vals = floored_spectrum(rng, dim)
    else:
        rank = (support.shape[1] + 1) // 2
        a = support @ haar(rng, support.shape[1])[:, :rank]
        r_vals = floored_spectrum(rng, rank)

    rho = _hermitian(a, r_vals)
    sigma = _hermitian(b, s)
    value = None if infinite else relative_entropy(r_vals, a, s, b)
    populations = (np.abs(a.conj().T @ b) ** 2 * r_vals[:, None]).sum(axis=0)  # <b_j|rho|b_j>
    p = tuple(
        math.fsum(populations[(owner == k) & (s > 0)].tolist()) for k in range(len(sizes))
    )

    name = f"d{dim}-{'rot' if rotated else 'comp'}-{'inf' if infinite else 'fin'}"
    rho_path = out_dir / f"{name}.rho.json"
    sigma_path = out_dir / f"{name}.sigma.json"
    rho_path.write_text(json.dumps({"dim": dim, "matrix": _rows(rho)}))
    sigma_path.write_text(json.dumps({"dim": dim, "matrix": _rows(sigma)}))
    blocks = blocks_file = None
    if rotated:
        projectors = []
        start = 0
        for m in sizes:
            cols = frame[:, start : start + m]
            projectors.append(_rows(cols @ cols.conj().T))
            start += m
        blocks_path = out_dir / f"{name}.blocks.json"
        blocks_path.write_text(json.dumps({"dim": dim, "projectors": projectors}))
        blocks_file = str(blocks_path)
    else:
        blocks = ",".join(str(m) for m in sizes)
    return Case(
        name=name,
        dim=dim,
        rho=str(rho_path),
        sigma=str(sigma_path),
        blocks=blocks,
        blocks_file=blocks_file,
        rho_rank=len(r_vals),
        sigma_rank=int((s > 0).sum()),
        value=value,
        weights=tuple(float(x) for x in weights),
        p=p,
    )


def build_cases(rng: np.random.Generator, dims, out_dir: Path) -> list[Case]:
    """Four cases per dimension: {computational, rotated} blocks x {finite, inf}.

    The computational cases go to ``breakdown --blocks`` and the rotated
    ones to ``breakdown --blocks-file``, so each form takes half the calls.
    """
    return [
        build_case(rng, dim, rotated, infinite, out_dir)
        for dim in dims
        for rotated in (False, True)
        for infinite in (False, True)
    ]


# --------------------------------------------------------------------------
# Output checks.  Each raises CheckError on the first disagreement.


def _field(pattern: str, text: str, what: str) -> re.Match:
    m = re.search(pattern, text, re.MULTILINE)
    if m is None:
        raise CheckError(f"{what}: line not found")
    return m


def _check_value(printed: str, expected: float | None, what: str) -> None:
    if expected is None:
        if printed != "inf":
            raise CheckError(f"{what}: expected inf, got {printed}")
        return
    if printed == "inf":
        raise CheckError(f"{what}: expected {expected!r}, got inf")
    if not abs(float(printed) - expected) <= VALUE_TOL * max(1.0, abs(expected)):
        raise CheckError(f"{what}: expected {expected!r}, got {printed}")


def check_compute(case: Case, rc: int, out: str) -> None:
    if rc != 0:
        raise CheckError(f"compute {case.name}: exit code {rc}")
    for label, rank in (("rho", case.rho_rank), ("sigma", case.sigma_rank)):
        m = _field(rf"^{label}:\s+dim (\d+), support rank (\d+)$", out, f"compute {case.name} {label}")
        if (int(m.group(1)), int(m.group(2))) != (case.dim, rank):
            raise CheckError(f"compute {case.name}: {label} dim/rank {m.groups()}, expected {(case.dim, rank)}")
    verdict = _field(r"^support\(rho\) <= support\(sigma\): (\w+)$", out, f"compute {case.name}").group(1)
    if verdict != ("no" if case.value is None else "yes"):
        raise CheckError(f"compute {case.name}: support verdict {verdict}")
    printed = _field(r"^S\(rho\|\|sigma\) = (\S+) nats$", out, f"compute {case.name}").group(1)
    _check_value(printed, case.value, f"compute {case.name}")


def check_breakdown(case: Case, rc: int, out: str) -> None:
    what = f"breakdown {case.name} ({'--blocks' if case.blocks else '--blocks-file'})"
    if rc != 0:
        raise CheckError(f"{what}: exit code {rc}")
    rows = re.findall(r"^  (\d+)\s+(\S+)\s+(\S+)\s*$", out, re.MULTILINE)
    if [int(k) for k, _, _ in rows] != list(range(len(case.weights))):
        raise CheckError(f"{what}: block rows {rows}")
    for (k, w, p), w_exp, p_exp in zip(rows, case.weights, case.p):
        if not (abs(float(w) - w_exp) <= VALUE_TOL and abs(float(p) - p_exp) <= VALUE_TOL):
            raise CheckError(f"{what}: block {k} has w={w} p={p}, expected w={w_exp!r} p={p_exp!r}")
    direct = _field(r"^S\(rho\|\|sigma\), direct\s+= (\S+)$", out, what).group(1)
    _check_value(direct, case.value, what)
    rhs = _field(r"^rhs total\s+= (\S+)$", out, what).group(1)
    if (rhs == "inf") != (case.value is None):
        raise CheckError(f"{what}: rhs total {rhs}")
    residual = _field(r"^residual \|lhs - rhs\|\s+= (\S+)", out, what).group(1)
    if case.value is None:
        if residual != "n/a":
            raise CheckError(f"{what}: residual {residual} on an infinite case")
    elif not float(residual) <= IDENTITY_TOL:
        raise CheckError(f"{what}: residual {residual} above {IDENTITY_TOL}")


def check_verify(identity: str, dims, trials: int, rc: int, report: dict, failing=frozenset()) -> int:
    """Check one campaign report; return its number of trials.

    ``failing`` names the ``(dim, trial)`` pairs of a campaign known to
    fail: exactly those records must exceed the tolerance, and the exit
    code must then be 1.
    """
    what = f"verify {identity}"
    if rc != (1 if failing else 0):
        raise CheckError(f"{what}: exit code {rc}")
    cfg = report["config"]
    if report["identity"] != identity or cfg["dims"] != list(dims) or cfg["trials"] != trials:
        raise CheckError(f"{what}: report is for {report['identity']} {cfg['dims']} x {cfg['trials']}")
    records = report["records"]
    if len(records) != len(dims) * trials or report["summary"]["trials"] != len(records):
        raise CheckError(f"{what}: {len(records)} records for {len(dims)} dims x {trials} trials")
    if report["summary"]["failures"] != len(failing):
        raise CheckError(f"{what}: {report['summary']['failures']} failures, expected {len(failing)}")
    tol = cfg["tolerances"]["identity"]
    consistent = set()
    for rec in records:
        res, at = rec["residual"], (rec["dim"], rec["trial"])
        if res == "infinite-mismatch":
            raise CheckError(f"{what}: infinite-mismatch at dim {at[0]} trial {at[1]}")
        if res == "infinite-consistent":
            consistent.add(at)
        elif at in failing:
            if not (isinstance(res, float) and res > tol and not rec["passed"]):
                raise CheckError(f"{what}: known failure at dim {at[0]} trial {at[1]} reads {res!r}")
        elif not (isinstance(res, float) and res <= tol and rec["passed"]):
            raise CheckError(f"{what}: residual {res!r} above {tol} at dim {at[0]} trial {at[1]}")
    slots = set()
    if identity in INFINITE_SLOT_IDENTITIES:
        slots = {(d, t) for d in dims for t in range(trials) if t % 3 == 2}
    if consistent != slots:
        raise CheckError(f"{what}: infinite-consistent records at {sorted(consistent ^ slots)[:4]} differ from the slots")
    return len(records)
