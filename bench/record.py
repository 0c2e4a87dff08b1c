"""Record a paired benchmark trajectory: a base revision against a change.

    python3 bench/record.py --label NAME --base REV [--head REV] [--reference METRIC] [--note TEXT ...]

Both revisions are exported with ``git archive`` into a temporary
directory, and ``perfbench/run.py`` runs there as a subprocess, each
run in a fresh interpreter on the exported sources at the benchmark's
own run length.  An export leaves nothing in the repository's own
``.git``, unlike a worktree, even when a run is interrupted.

For each of ``PAIRS`` pairs and each workload the two sides run once
each, on the same benchmark seed, and the side that runs first
alternates from pair to pair.  The last line of each run's output
(the benchmark's JSON) is kept whole.  Then, per workload and side,
``TRACED`` runs of ``TRACE_SECONDS`` at ``--trace 1`` on one fixed
seed give the per-layer counts, which repeat exactly for a seed.
Last, each side's solve shapes: for every identity at each of
``SHAPE_DIMS``, one ``run_campaign`` of ``SHAPE_TRIALS`` trials on
``SHAPE_SEED`` in the exported tree, with every eigensolver call
recorded by shape.  Per trial it gives the ``d x d`` solves and the
smaller solves, each matrix of a stack counted once, and the solver
calls; stacking shows as fewer calls for the same solves.  QRs are
counted alike, as matrices factored and calls.

Each end-to-end metric's head/base ratio per pair is reported raw and
divided by the same pair's ratio of a reference rate, next to each
other; the medians, quartiles and wins stay those of the raw runs.
Within a pair the rates of untouched code move together, so the divided
ratio reads a change apart from the drift of its run, as long as the
change leaves the reference's path alone.  The reference is
``--reference``, an end-to-end rate of ``BENCHMARK.json``, by default
``compute_calls_per_s`` (``REFERENCE``): ``compute`` runs
``load_matrix``, ``validate_density`` and ``quantum_relative_entropy``,
so a change that touches them names a rate whose path it leaves alone,
such as ``corollary3_trials_per_s``.

The result is ``BENCH_<label>.json`` in the repository root: every
run, each side's failed runs and failed operations, the median,
quartiles and win count of each end-to-end metric of
``BENCHMARK.json`` (a win is a pair where the change reads better, in
the metric's own direction; a pair where either run failed counts as
a loss), the per-pair ratios, and the machine facts of the run.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small", "large")
PAIRS = 10
SEEDS = tuple(range(1, PAIRS + 1))  # pair i runs benchmark seed SEEDS[i]
TRACED = 2  # traced runs per workload and side
TRACE_SECONDS = 5.0
TRACE_SEED = 1
SHAPE_DIMS = (4, 64)
SHAPE_TRIALS = 24
SHAPE_SEED = 11

# Run in an exported tree: every numpy.linalg.eigh/eigvalsh call of one
# campaign per (identity, dim), counted by the size of what it solves,
# and every numpy.linalg.qr call with the number of matrices it factors.
SHAPE_CODE = """
import json, math, sys
import numpy as np
sys.path.insert(0, "src")
from qrelent.campaign import IDENTITIES, VerifyConfig, run_campaign

dims, trials, seed = json.loads(sys.argv[1])
calls = {"eigh": [], "eigvalsh": [], "qr": []}
for name, shapes in calls.items():
    def counted(a, *args, _real=getattr(np.linalg, name), _shapes=shapes, **kwargs):
        _shapes.append(np.shape(a))
        return _real(a, *args, **kwargs)
    setattr(np.linalg, name, counted)
out = {}
for identity in IDENTITIES:
    for dim in dims:
        for shapes in calls.values():
            shapes.clear()
        run_campaign(VerifyConfig(identity=identity, dims=(dim,), trials=trials, seed=seed, include_infinite=True))
        shapes = calls["eigh"] + calls["eigvalsh"]
        full = sum(math.prod(s[:-2]) for s in shapes if s[-1] == dim)
        smaller = sum(math.prod(s[:-2]) for s in shapes if s[-1] < dim)
        out.setdefault(identity, {})[str(dim)] = {
            "dxd_solves": full / trials, "smaller_solves": smaller / trials, "solver_calls": len(shapes) / trials,
            "qr_matrices": sum(math.prod(s[:-2]) for s in calls["qr"]) / trials, "qr_calls": len(calls["qr"]) / trials,
        }
print(json.dumps(out))
"""

# The default end-to-end rate whose per-pair ratio each pair's ratios are divided by.
REFERENCE = "compute_calls_per_s"


def reference_setting(reference: str) -> str:
    """What the record's ``settings.reference`` says of the divided ratios."""
    return (
        f"summary pair_ratios divide each pair's head/base ratio by the same pair's {reference} ratio"
        " (rates divided, times multiplied, other units left raw); a change that touches the path of"
        f" {reference} cannot read the divided ratios"
    )


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; return its full hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_bench(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``perfbench/run.py`` run: its JSON line, or the failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if trace:
        argv += ["--trace", "1", "--seconds", str(TRACE_SECONDS)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        return {"returncode": proc.returncode, "result": json.loads(lines[-1])}
    except (IndexError, json.JSONDecodeError):
        return {"returncode": proc.returncode, "result": None, "stderr_tail": proc.stderr[-2000:]}


def run_failed(run: dict) -> bool:
    """A run that exited non-zero, printed no JSON or reports a wrong result."""
    return run["returncode"] != 0 or run["result"] is None or not run["result"].get("correct", False)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3, "iqr": q3 - q1}


def metric(run: dict, name: str) -> float | None:
    if run_failed(run) or name not in run["result"]["metrics"]:
        return None
    return run["result"]["metrics"][name]["value"]


def pair_ratios(pairs: list[dict], name: str, unit: str, reference: str = REFERENCE) -> dict | None:
    """The head/base ratio of a metric in each pair, raw and divided by
    the same pair's ratio of the ``reference`` rate.

    A rate (a unit per second) is divided by the reference ratio and a
    time (in seconds) multiplied by it; other units are not normalised.
    A pair with a failed run gives no ratio.
    """
    raw, normalised = [], []
    for p in pairs:
        base, head = metric(p["base"], name), metric(p["head"], name)
        if base is None or head is None or not base:
            continue
        raw.append(head / base)
        ref_base, ref_head = metric(p["base"], reference), metric(p["head"], reference)
        if ref_base and ref_head:
            drift = ref_head / ref_base
            if unit.endswith("/s"):
                normalised.append(head / base / drift)
            elif unit == "s":
                normalised.append(head / base * drift)
    if not raw:
        return None

    def spread(ratios: list[float]) -> dict | None:
        return {**quartiles(ratios), "min": min(ratios), "max": max(ratios), "ratios": ratios} if ratios else None

    return {"raw": spread(raw), "drift_normalised": spread(normalised)}


def summarize(pairs: list[dict], spec: dict, reference: str = REFERENCE) -> dict:
    """Each side's failed runs and its attempted and failed operations;
    per end-to-end metric, each side's median and quartiles, the
    change's wins, and the per-pair ratios of :func:`pair_ratios`
    against ``reference``."""
    out = {
        "failed_runs": {side: sum(run_failed(p[side]) for p in pairs) for side in ("base", "head")},
        "operations": {
            side: {
                key: sum(p[side]["result"][key] for p in pairs if p[side]["result"]) for key in ("attempted", "failed")
            }
            for side in ("base", "head")
        },
    }
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        both = [(metric(p["base"], name), metric(p["head"], name)) for p in pairs]
        base, head = [b for b, _ in both if b is not None], [h for _, h in both if h is not None]
        if not base or not head:
            out[name] = None
            continue
        measured = [(b, h) for b, h in both if b is not None and h is not None]
        base_q, head_q = quartiles(base), quartiles(head)
        gain = head_q["median"] - base_q["median"] if higher else base_q["median"] - head_q["median"]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "pairs": len(pairs),
            "pairs_lost_to_a_failed_run": len(pairs) - len(measured),
            "base": base_q,
            "head": head_q,
            "head_over_base": head_q["median"] / base_q["median"] if base_q["median"] else None,
            "head_wins": sum(1 for b, h in measured if (h > b if higher else h < b)),
            "ties": sum(1 for b, h in measured if h == b),
            "gain_beyond_base_iqr": gain > base_q["iqr"],
            "pair_ratios": pair_ratios(pairs, name, m["unit"], reference),
        }
    return out


def solve_counts(traced: dict) -> dict:
    """Per side, the eigensolver counts of each traced run, which repeat exactly for a seed."""
    out = {}
    for side, runs in traced.items():
        names = sorted({n for r in runs if r["result"] for n in r["result"]["metrics"] if n.startswith("eigensolves_per_")})
        out[side] = {n: [metric(r, n) for r in runs] for n in names}
    return out


def solve_shapes(checkout: Path) -> dict:
    """Per identity and dimension of ``SHAPE_DIMS``, the solves and solver calls per trial in ``checkout``."""
    argv = [sys.executable, "-c", SHAPE_CODE, json.dumps([SHAPE_DIMS, SHAPE_TRIALS, SHAPE_SEED])]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def blas_facts() -> dict:
    """NumPy's build and BLAS facts, from a fresh interpreter pinned as the benchmark pins it."""
    code = (
        "import json, numpy, sys\n"
        "cfg = numpy.show_config(mode='dicts')\n"
        "print(json.dumps({'numpy': numpy.__version__, 'python': sys.version,"
        " 'blas': cfg.get('Build Dependencies', {}).get('blas'),"
        " 'lapack': cfg.get('Build Dependencies', {}).get('lapack')}))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", default="HEAD", help="changed revision (default HEAD)")
    parser.add_argument(
        "--reference",
        default=REFERENCE,
        help=f"the end-to-end rate that each pair's ratios are divided by; name one whose path the change"
        f" leaves alone (default {REFERENCE})",
    )
    parser.add_argument("--note", action="append", default=[], help="a note to keep in the file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rates = [m["name"] for m in spec["end_to_end"] if m["unit"].endswith("/s")]
    if args.reference not in rates:
        parser.error(f"--reference must be an end-to-end rate of BENCHMARK.json, one of {', '.join(rates)}")
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        sides = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        revisions = {side: export(getattr(args, side), path) for side, path in sides.items()}

        pairs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
        for i, seed in enumerate(SEEDS):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for workload in WORKLOADS:
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(sides[side], workload, seed, trace=False)
                pairs[workload].append(pair)
                print(f"pair {i} {workload} done", file=sys.stderr, flush=True)

        traced: dict[str, dict[str, list[dict]]] = {w: {"base": [], "head": []} for w in WORKLOADS}
        for workload in WORKLOADS:
            for k in range(TRACED):
                for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                    traced[workload][side].append(run_bench(sides[side], workload, TRACE_SEED, trace=True))
        shapes = {side: solve_shapes(path) for side, path in sides.items()}

    document = {
        "label": args.label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "command": ["python3", "bench/record.py", *(argv if argv is not None else sys.argv[1:])],
        "revisions": revisions,
        "machine": {
            **blas_facts(),
            "platform": platform.platform(),
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "blas_threads": "1 (perfbench/run.py sets OPENBLAS_NUM_THREADS=1 before importing numpy)",
        },
        "settings": {
            "pairs": PAIRS,
            "seconds": "perfbench/run.py's own run length",
            "seeds": list(SEEDS),
            "traced_runs": TRACED,
            "trace_seconds": TRACE_SECONDS,
            "trace_seed": TRACE_SEED,
            "solve_shapes": f"run_campaign(identity, dims=(d,), trials={SHAPE_TRIALS}, seed={SHAPE_SEED},"
            f" include_infinite=True) for d in {SHAPE_DIMS}; counts per trial, each matrix of a stack once",
            "order": "pair i runs base first when i is even, head first when i is odd",
            "reference": reference_setting(args.reference),
        },
        "notes": args.note,
        "summary": {w: summarize(pairs[w], spec, args.reference) for w in WORKLOADS},
        "solve_counts": {w: solve_counts(traced[w]) for w in WORKLOADS},
        "solve_shapes": shapes,
        "traced": traced,
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
