"""Smoke tests of the benchmark at tiny sizes, and generator determinism.

Run from the checkout root: ``python3 -m pytest bench``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.chdir(ROOT)
    for name, value in {
        "LADDER": (40, 80),
        "CORPUS_TRAIN": 4, "CORPUS_TEST": 2, "CORPUS_NOTES": (20, 40),
        "TUNE_TRAIN": 4, "TUNE_VALID": 2, "TUNE_NOTES": (20, 40),
        "TUNE_BUDGET": {"note": 2, "chord": 2}, "SCALING_REPEATS": 1,
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUP_REPS", 2)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.per_layer_names() if trace else run.END_TO_END
    assert sorted(n for n, _ in names) == sorted(result["metrics"])
    for name, unit in names:
        metric = result["metrics"][name]
        assert metric["unit"] == unit and isinstance(metric["value"], (int, float))
        if not trace or (workload == "long" and ".decode.us_per_note." in name):
            assert metric["value"] > 0, name


def _digest(workload, seed, tmp_path):
    work = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    workloads.make(workload, seed, ROOT, work)
    return run.digest_dir(work)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_generator_is_deterministic(tiny, tmp_path, workload):
    first = _digest(workload, 5, tmp_path)
    assert _digest(workload, 5, tmp_path) == first
    assert _digest(workload, 6, tmp_path) != first


def test_generated_files_parse_and_fit_one_hand():
    sys.path.insert(0, str(ROOT / "src"))
    from pianofinger import cluster_chords, parse_fingering_file, split_hands

    rng = gen.np.random.default_rng(0)
    for piece in gen.mixed_pieces(rng, "p", 6, (30, 120), 3) + gen.ladder_pieces(rng, (200,)):
        parsed = [parse_fingering_file(gen.render(piece, a)) for a in range(len(piece.fingerings))]
        assert len({tuple((n.onset, n.midi) for n in p.notes) for p in parsed}) == 1
        assert len(parsed[0]) == piece.n_notes
        for part in split_hands(parsed[0]):
            if len(part):
                cluster_chords(part, 0.03)  # raises HandOverflow past five pitches


def test_benchmark_json_lists_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
