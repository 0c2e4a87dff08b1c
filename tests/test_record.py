"""The summarizers of ``bench/record.py``, on synthetic pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

SPEC = {
    "end_to_end": [
        {"name": "lemma1_trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25},
        {"name": "compute_calls_per_s", "unit": "calls/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]
}


def run(failed_ops=0, returncode=0, correct=True, **metrics):
    """A run as ``record.run_bench`` keeps it: the benchmark's JSON line."""
    return {
        "returncode": returncode,
        "result": {
            "correct": correct,
            "attempted": 10,
            "failed": failed_ops,
            "metrics": {name: {"value": value} for name, value in metrics.items()},
        },
    }


def pair(base, head):
    return {"base": base, "head": head}


def test_pair_ratios_divide_rates_multiply_times_and_leave_megabytes_raw():
    # compute reads 2x on the head, so the run drifted by 2.
    base = run(compute_calls_per_s=100.0, lemma1_trials_per_s=50.0, setup_s=0.2, peak_rss_mb=40.0)
    head = run(compute_calls_per_s=200.0, lemma1_trials_per_s=150.0, setup_s=0.1, peak_rss_mb=44.0)
    pairs = [pair(base, head)]
    rate = record.pair_ratios(pairs, "lemma1_trials_per_s", "trials/s")
    assert rate["raw"]["ratios"] == [3.0]
    assert rate["drift_normalised"]["ratios"] == [1.5]
    time = record.pair_ratios(pairs, "setup_s", "s")
    assert time["raw"]["ratios"] == [0.5]
    assert time["drift_normalised"]["ratios"] == [1.0]
    memory = record.pair_ratios(pairs, "peak_rss_mb", "MB")
    assert memory["raw"]["ratios"] == [pytest.approx(1.1)]
    assert memory["drift_normalised"] is None
    assert record.pair_ratios(pairs, "compute_calls_per_s", "calls/s")["drift_normalised"]["ratios"] == [1.0]


def test_pair_ratios_skip_a_pair_with_a_failed_run():
    good = run(compute_calls_per_s=100.0, lemma1_trials_per_s=50.0)
    pairs = [pair(good, run(returncode=1, compute_calls_per_s=100.0, lemma1_trials_per_s=75.0)), pair(good, good)]
    assert record.pair_ratios(pairs, "lemma1_trials_per_s", "trials/s")["raw"]["ratios"] == [1.0]
    assert record.pair_ratios(pairs[:1], "lemma1_trials_per_s", "trials/s") is None


def _spread(**values):
    """Five pairs whose head reads each metric at ``values[name][i]`` against a base of 1."""
    return [
        pair(
            run(**{name: 1.0 for name in values}),
            run(**{name: series[i] for name, series in values.items()}),
        )
        for i in range(5)
    ]


def test_summarize_counts_wins_in_each_metric_direction_and_ties_apart():
    pairs = _spread(
        lemma1_trials_per_s=[2.0, 2.0, 0.5, 1.0, 1.0],  # higher is better: 2 wins, 2 ties
        compute_calls_per_s=[1.0] * 5,
        setup_s=[0.5, 0.5, 0.5, 2.0, 1.0],  # lower is better: 3 wins, 1 tie
        peak_rss_mb=[2.0, 2.0, 2.0, 2.0, 0.5],  # lower is better: 1 win
    )
    out = record.summarize(pairs, SPEC)
    assert (out["lemma1_trials_per_s"]["head_wins"], out["lemma1_trials_per_s"]["ties"]) == (2, 2)
    assert (out["compute_calls_per_s"]["head_wins"], out["compute_calls_per_s"]["ties"]) == (0, 5)
    assert (out["setup_s"]["head_wins"], out["setup_s"]["ties"]) == (3, 1)
    assert (out["peak_rss_mb"]["head_wins"], out["peak_rss_mb"]["ties"]) == (1, 0)
    assert out["setup_s"]["head"]["median"] == 0.5
    assert out["setup_s"]["gain_beyond_base_iqr"]
    assert not out["peak_rss_mb"]["gain_beyond_base_iqr"]
    assert out["failed_runs"] == {"base": 0, "head": 0}


@pytest.mark.parametrize(
    "failure",
    [dict(returncode=1), dict(correct=False)],
    ids=["nonzero-exit", "wrong-result"],
)
def test_summarize_counts_a_pair_with_a_failed_run_as_lost(failure):
    pairs = _spread(lemma1_trials_per_s=[2.0] * 5, compute_calls_per_s=[1.0] * 5)
    pairs[0]["head"] = run(failed_ops=3, lemma1_trials_per_s=4.0, compute_calls_per_s=1.0, **failure)
    out = record.summarize(pairs, SPEC)
    lemma1 = out["lemma1_trials_per_s"]
    assert lemma1["head_wins"] == 4
    assert lemma1["pairs"] == 5
    assert lemma1["pairs_lost_to_a_failed_run"] == 1
    assert lemma1["head"]["median"] == 2.0
    assert out["failed_runs"] == {"base": 0, "head": 1}
    assert out["operations"]["head"] == {"attempted": 50, "failed": 3}
    assert out["setup_s"] is None


def test_pair_ratios_and_summary_divide_by_the_named_reference():
    # compute reads 2x on the head (the change touched it) while the
    # untouched corollary3 reads 1.25x, the drift of the run.
    corollary3 = {"name": "corollary3_trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25}
    spec = {"end_to_end": [*SPEC["end_to_end"], corollary3]}
    base = run(compute_calls_per_s=100.0, corollary3_trials_per_s=40.0, lemma1_trials_per_s=50.0, setup_s=0.2)
    head = run(compute_calls_per_s=200.0, corollary3_trials_per_s=50.0, lemma1_trials_per_s=75.0, setup_s=0.1)
    pairs = [pair(base, head)]
    rate = record.pair_ratios(pairs, "lemma1_trials_per_s", "trials/s", "corollary3_trials_per_s")
    assert rate["drift_normalised"]["ratios"] == [1.2]
    assert record.pair_ratios(pairs, "lemma1_trials_per_s", "trials/s")["drift_normalised"]["ratios"] == [0.75]
    out = record.summarize(pairs, spec, "corollary3_trials_per_s")
    assert out["compute_calls_per_s"]["pair_ratios"]["drift_normalised"]["ratios"] == [1.6]
    assert out["setup_s"]["pair_ratios"]["drift_normalised"]["ratios"] == [0.625]
    assert "corollary3_trials_per_s ratio" in record.reference_setting("corollary3_trials_per_s")


@pytest.mark.parametrize("name", ["setup_s", "peak_rss_mb", "no_such_metric"])
def test_reference_must_be_an_end_to_end_rate(name, capsys, monkeypatch, tmp_path):
    # Refused before any revision is exported or any run starts.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(record, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        record.main(["--label", "never", "--base", "HEAD", "--reference", name])
    assert exc.value.code == 2
    assert "--reference must be an end-to-end rate" in capsys.readouterr().err
