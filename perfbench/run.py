"""Benchmark of the qrelent CLI: verify campaigns and file-based compute/breakdown.

    python3 perfbench/run.py --workload small --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

Each operation is one in-process call of ``qrelent.cli.main(argv)`` with
stdout captured, and every output is checked against ``oracle.py``.
One run repeats whole rounds of the same operations until ``--seconds``
have passed, then prints one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracer.py`` with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
IDENTITIES = oracle.IDENTITIES
SETUPS = 5


@dataclass(frozen=True)
class Reproducer:
    """A fixed campaign that fails every time, on the known ``(dim, trial)``s."""

    dims: tuple[int, ...]
    trials: int
    seed: int
    failing: frozenset


@dataclass(frozen=True)
class Workload:
    seed: int
    dims: tuple[int, ...]
    trials: dict  # identity -> trials per dimension, a multiple of 12
    verify_dims: dict  # identity -> dims where they differ from ``dims``
    reproducers: dict  # identity -> Reproducer run in place of a seeded campaign


# lemma1 campaigns fail now and then from d=8 up (the residual gate is
# absolute while the round-off grows as 1/lambda_min), so a seeded
# lemma1 campaign runs at d <= 4 only, and the large workload times a
# fixed campaign at d=32,64 that fails on one known trial.  See README.
WORKLOADS = {
    "small": Workload(
        seed=20031,
        dims=(2, 3, 4, 8),
        trials=dict.fromkeys(IDENTITIES, 12),
        verify_dims={"lemma1": (2, 3, 4)},
        reproducers={},
    ),
    "large": Workload(
        seed=20064,
        dims=(32, 64),
        trials={**dict.fromkeys(IDENTITIES, 12), "corollary2": 24},
        verify_dims={},
        reproducers={"lemma1": Reproducer((32, 64), 12, 530, frozenset({(32, 2)}))},
    ),
}

# Per-layer functions reported one by one (module self time covers the rest).
LAYER_FUNCTIONS = (
    "linop.eigh",
    "linop.validate_density",
    "linop.extended_log",
    "linop.pinch",
    "linop.support_projector",
    "linop.support_leakage",
    "linop.Projector.validated",
    "entropy.quantum_relative_entropy",
    "entropy.von_neumann_entropy",
    "mixing.decompose_by_projectors",
    "mixing.theorem1_breakdown",
    "mixing.lemma1_log_decomposition",
    "lueders.lueders_state",
    "lueders.is_refinement",
    "lueders.ProjectiveObservable.validated",
    "stategen.random_state_in_support",
    "stategen.random_block_projectors",
    "stategen.random_refinement",
    "campaign.run_campaign",
    "campaign.write_report",
    "matio.load_matrix",
    "matio.load_projectors",
)


@dataclass(frozen=True)
class Op:
    kind: str  # an identity, "compute" or "breakdown"
    argv: list
    check: object  # (rc, stdout) -> units of work done; raises oracle.CheckError
    known_failure: bool = False


def call(argv: list) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, captured output, wall seconds."""
    main = sys.modules["qrelent.cli"].main  # looked up per call: the tracer may patch it
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - start
    return rc, buf.getvalue(), seconds


def verify_op(identity: str, dims, trials: int, seed: int, out: Path, failing=frozenset()) -> Op:
    argv = [
        "verify", identity, "--dims", ",".join(map(str, dims)), "--trials", str(trials),
        "--seed", str(seed), "--include-infinite", "--threads", "1", "--out", str(out),
    ]

    def check(rc: int, _out: str) -> int:
        report = json.loads(out.read_text())
        return oracle.check_verify(identity, dims, trials, rc, report, failing)

    return Op(identity, argv, check, known_failure=bool(failing))


def compute_op(case: oracle.Case) -> Op:
    def check(rc: int, out: str) -> int:
        oracle.check_compute(case, rc, out)
        return 1

    return Op("compute", ["compute", case.rho, case.sigma], check)


def breakdown_op(case: oracle.Case) -> Op:
    def check(rc: int, out: str) -> int:
        oracle.check_breakdown(case, rc, out)
        return 1

    return Op("breakdown", case.breakdown_argv(), check)


def round_ops(wl: Workload, seed: int, rnd: int, cases, work: Path) -> list[Op]:
    """The operations of one round: seven campaigns, and every case twice.

    The cases are spread between the campaigns, so that compute and
    breakdown calls sample the machine's speed across the whole round.
    """
    ops = []
    chunks = np.array_split(np.arange(len(cases)), len(IDENTITIES))
    for k, (identity, chunk) in enumerate(zip(IDENTITIES, chunks)):
        out = work / f"verify_{identity}.json"
        rep = wl.reproducers.get(identity)
        if rep is not None:
            ops.append(verify_op(identity, rep.dims, rep.trials, rep.seed, out, rep.failing))
        else:
            campaign_seed = int(np.random.SeedSequence([wl.seed, seed, rnd, k]).generate_state(1)[0])
            dims = wl.verify_dims.get(identity, wl.dims)
            ops.append(verify_op(identity, dims, wl.trials[identity], campaign_seed, out))
        for i in chunk.tolist():
            ops += [compute_op(cases[i]), breakdown_op(cases[i])]
    return ops


def set_up(wl: Workload, seed: int, work: Path) -> list[oracle.Case]:
    """Import qrelent afresh, write the input files, warm up each operation kind."""
    for name in [n for n in sys.modules if n == "qrelent" or n.startswith("qrelent.")]:
        del sys.modules[name]
    importlib.import_module("qrelent.cli")
    work.mkdir(parents=True)
    cases = oracle.build_cases(np.random.default_rng([wl.seed, seed]), wl.dims, work)
    largest = [c for c in cases if c.dim == wl.dims[-1]]
    warm = [verify_op(i, wl.dims[:1], 3, 0, work / "warm.json") for i in IDENTITIES]
    warm += [compute_op(largest[0]), breakdown_op(largest[0]), breakdown_op(largest[-1])]
    for op in warm:
        rc, out, _ = call(op.argv)
        op.check(rc, out)
    return cases


class Tally:
    """Operations attempted and failed, and work and wall time per kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.units: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def run(self, op: Op) -> tuple[float, int] | None:
        """Run and check one operation; return (wall seconds, units), or None."""
        self.attempted += 1
        try:
            rc, out, seconds = call(op.argv)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        try:
            units = op.check(rc, out)
        except (oracle.CheckError, OSError, ValueError, KeyError) as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
            return None
        if op.known_failure:
            self.failed += 1
        self.units[op.kind] = self.units.get(op.kind, 0) + units
        self.seconds[op.kind] = self.seconds.get(op.kind, 0.0) + seconds
        return seconds, units

    def rate(self, kind: str) -> float:
        return self.units.get(kind, 0) / self.seconds[kind] if self.seconds.get(kind) else 0.0


def end_to_end_metrics(tally: Tally, setup_times: list[float]) -> dict:
    metrics = {f"{i}_trials_per_s": (tally.rate(i), "trials/s") for i in IDENTITIES}
    metrics["compute_calls_per_s"] = (tally.rate("compute"), "calls/s")
    metrics["breakdown_calls_per_s"] = (tally.rate("breakdown"), "calls/s")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def layer_metrics(tr: tracer.Tracer, rounds: int, solves: dict, units: dict, overhead: float) -> dict:
    per_round = 1.0 / rounds
    metrics = {}
    for short in tracer.MODULES:
        self_s = sum(t[1] for name, t in tr.totals.items() if name.startswith(short + "."))
        metrics[f"{short}.self_s"] = (self_s * per_round, "s/round")
    for name in LAYER_FUNCTIONS + tracer.EIGENSOLVERS:
        calls, self_s = tr.totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls * per_round, "count/round")
        if name != "numpy.linalg.eigvalsh":
            metrics[f"{name}.self_s"] = (self_s * per_round, "s/round")
    for i in IDENTITIES:
        metrics[f"eigensolves_per_trial.{i}"] = (solves[i] / units[i], "count/trial")
    for kind in ("compute", "breakdown"):
        metrics[f"eigensolves_per_call.{kind}"] = (solves[kind] / units[kind], "count/call")
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup_times = []
    for k in range(SETUPS):
        start = time.perf_counter()
        cases = set_up(wl, seed, work / f"setup{k}")
        setup_times.append(time.perf_counter() - start)

    tally = Tally()
    tr = tracer.Tracer()
    plain_s = traced_s = 0.0
    solves: dict[str, int] = {}
    units: dict[str, int] = {}
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for op in round_ops(wl, seed, rounds, cases, work):
            plain = tally.run(op)
            if not trace or plain is None:
                continue
            tr.install()
            try:
                traced = tally.run(op)
            finally:
                tr.uninstall()
            n_solves = tr.fold()
            if traced is None:
                continue
            plain_s += plain[0]
            traced_s += traced[0]
            if rounds == 0:
                solves[op.kind] = solves.get(op.kind, 0) + n_solves
                units[op.kind] = units.get(op.kind, 0) + traced[1]
        rounds += 1

    if trace:
        if not tally.correct:
            metrics = {}
        else:
            overhead = 100.0 * (traced_s - plain_s) / plain_s
            metrics = layer_metrics(tr, rounds, solves, units, overhead)
    else:
        metrics = end_to_end_metrics(tally, setup_times)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="check the checks at d <= 4 and exit")
    args = parser.parse_args(argv)
    if not (SRC / "qrelent" / "__init__.py").is_file():
        print(f"error: no qrelent sources under {SRC}", file=sys.stderr)
        return 2
    if args.selftest == (args.workload is not None):
        parser.error("give exactly one of --workload and --selftest")
    sys.path.insert(0, str(SRC))
    work = WORK / str(os.getpid())
    try:
        if args.selftest:
            import selftest

            importlib.import_module("qrelent.cli")
            return selftest.main(work, call)
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
