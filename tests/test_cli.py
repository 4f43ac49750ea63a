"""End-to-end command-line workflows on the bundled sample corpus."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from pianofinger.chord_hmm import (
    Chord,
    ChordComponent,
    ChordHmmParams,
    chord_path_log_score,
    cluster_chords,
)
from pianofinger.cli import build_parser, main
from pianofinger.dataset import load_piece
from pianofinger.errors import AlignmentMismatch, LengthMismatch
from pianofinger.estimate import estimate_piece
from pianofinger.eval_measures import MEASURES
from pianofinger.experiments import train_model
from pianofinger.model_io import load_model
from pianofinger.note_hmm import sequence_log_score
from pianofinger.pig_io import GroundTruthSet, Hand, Piece, midi_to_pitch, split_hands

DATA = Path(__file__).resolve().parents[1] / "data"
CORPUS = DATA / "sample_corpus"
GOLDEN = DATA / "golden_estimate.txt"
GOLDEN_EXPERIMENTS = DATA / "golden_experiments"

# the options each file in data/golden_experiments was written with, on
# data/sample_corpus for both the training and the validation/test data,
# by the code that retrained every candidate and repeat from raw notes
GOLDEN_EXPERIMENT_FLAGS = {
    "tune_note_m_gen.tsv": ["--budget", "8", "--seed", "3"],
    "tune_note_m_rec.tsv": ["--budget", "8", "--seed", "4", "--objective", "m_rec"],
    "tune_note_o3_time_reflect.tsv": [
        "--budget", "8", "--seed", "5", "--order", "3", "--symmetry", "time+reflect",
    ],
    "tune_note_m_soft.tsv": [
        "--budget", "5", "--seed", "11", "--objective", "m_soft", "--pitch", "integral",
        "--symmetry", "reflect",
    ],
    "tune_chord_m_gen.tsv": ["--budget", "6", "--seed", "6", "--model-kind", "chord-hmm"],
    "tune_chord_m_rec.tsv": [
        "--budget", "6", "--seed", "7", "--model-kind", "chord-hmm", "--objective", "m_rec",
    ],
    "tune_chord_m_high.tsv": [
        "--budget", "5", "--seed", "12", "--model-kind", "chord-hmm", "--objective", "m_high",
    ],
    "scaling_note.tsv": ["--fractions", "0.25,0.5,1.0", "--repeats", "3", "--seed", "8"],
    "scaling_note_o3_time_reflect.tsv": [
        "--fractions", "0.25,0.5,1.0", "--repeats", "3", "--seed", "9", "--order", "3",
        "--symmetry", "time+reflect",
    ],
    "scaling_chord.tsv": [
        "--fractions", "0.25,0.5,1.0", "--repeats", "3", "--seed", "10",
        "--model-kind", "chord-hmm",
    ],
}


@pytest.fixture
def model_path(tmp_path):
    out = tmp_path / "model.json"
    assert main(["train", str(CORPUS), "--out", str(out)]) == 0
    return out


def test_train_reports_corpus_stats(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["train", str(CORPUS), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "8 pieces (146 notes)" in err
    doc = json.loads(out.read_text())
    assert doc["kind"] == "note-hmm" and doc["config"]["order"] == 2


def test_train_all_annotators(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["train", str(CORPUS), "--out", str(out), "--all-annotators"]) == 0
    assert "9 pieces (158 notes)" in capsys.readouterr().err


def test_train_bad_coefficient_arity_fails(tmp_path, capsys):
    out = tmp_path / "model.json"
    code = main(["train", str(CORPUS), "--out", str(out), "--alpha", "0.5"])
    assert code == 1  # order-2 model needs two alpha weights
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--beta", "1"], "beta needs 2 values (across,within), got 1"),
    (["--gamma", "1,2,3"], "gamma needs 2 values (across,within), got 3"),
    (["--beta", ""], "beta needs 2 values (across,within), got 0"),
])
def test_train_chord_exponent_pairs_need_two_values(tmp_path, capsys, flags, message):
    out = tmp_path / "model.json"
    code = main(["train", str(CORPUS), "--model-kind", "chord-hmm", *flags, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["note-hmm", "chord-hmm"])
def test_train_refuses_delta_p_max_beyond_the_keyboard(tmp_path, capsys, kind):
    out = tmp_path / "model.json"
    code = main(["train", str(CORPUS), "--model-kind", kind, "--delta-p-max", "88",
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: delta_p_max must lie in 1..87, got 88\n"
    assert list(tmp_path.iterdir()) == []


def test_tune_objectives_are_the_measure_table():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    tune = commands.choices["tune"]
    objective = next(a for a in tune._actions if a.dest == "objective")
    assert objective.choices == tuple(MEASURES)


def test_train_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "model.json"
    assert main(["train", str(empty), "--out", str(out)]) == 1
    assert not out.exists()


def test_estimate_matches_golden(model_path, tmp_path):
    out = tmp_path / "est.txt"
    code = main(
        [
            "estimate",
            str(CORPUS / "101-1_fingering.txt"),
            "--model",
            str(model_path),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == GOLDEN.read_text()


def test_estimate_is_stable_under_reestimation(model_path, tmp_path):
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    piece = CORPUS / "103-1_fingering.txt"
    assert main(["estimate", str(piece), "--model", str(model_path), "--out", str(first)]) == 0
    assert main(["estimate", str(first), "--model", str(model_path), "--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


def test_estimate_accepts_unannotated_input(model_path, tmp_path):
    source = (CORPUS / "108-1_fingering.txt").read_text().splitlines()
    stripped = [
        "\t".join(line.split("\t")[:7])
        for line in source
        if line and not line.startswith("//")
    ]
    bare = tmp_path / "bare.txt"
    bare.write_text("".join(l + "\n" for l in stripped))
    out = tmp_path / "est.txt"
    assert main(["estimate", str(bare), "--model", str(model_path), "--out", str(out)]) == 0
    assert all(len(line.split("\t")) == 8 for line in out.read_text().splitlines())


def _with_bad_onset(source, dest):
    """Copy of a fingering file whose line 2 has the onset "abc"."""
    lines = source.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[1] = "abc"
    lines[1] = "\t".join(fields)
    dest.write_text("".join(l + "\n" for l in lines))
    return dest


def test_exit_status_is_2_for_usage_errors_and_1_for_input_errors(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "pianofinger.cli", *args],
            env=dict(os.environ, PYTHONPATH=str(DATA.parent / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )

    usage = run("train", str(CORPUS), "--out", str(tmp_path / "m.json"), "--order", "9")
    assert usage.returncode == 2
    assert usage.stderr.startswith("usage: pianofinger train ")
    assert "train: error: argument --order: invalid choice: 9" in usage.stderr
    estimate = str(CORPUS / "101-1_fingering.txt")
    for flags, message in [
        ([], "one of the arguments --est --human is required"),
        (["--human", "--est", estimate], "argument --est: not allowed with argument --human"),
    ]:
        usage = run("evaluate", *flags, "--gt", str(CORPUS))
        assert usage.returncode == 2
        assert usage.stderr.startswith("usage: pianofinger evaluate ")
        assert f"evaluate: error: {message}" in usage.stderr
    missing = tmp_path / "missing.txt"
    data = run("estimate", str(missing), "--model", str(DATA / "model_v1" / "chord.json"))
    assert data.returncode == 1
    assert data.stderr.startswith("error: ") and data.stderr.count("\n") == 1
    assert str(missing) in data.stderr
    for mode in (["--human"], ["--est", str(CORPUS)]):
        data = run("evaluate", *mode, "--gt", str(CORPUS), str(DATA / "model_v1"))
        assert data.returncode == 1
        assert data.stderr == ("error: --human and a directory --est take one --gt dataset "
                               "directory, got 2 paths\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind, flags", [
    ("chord-hmm", ["--order", "3"]),
    ("chord-hmm", ["--pitch", "integral"]),
    ("chord-hmm", ["--symmetry", "time"]),
    ("chord-hmm", ["--alpha", "9,9,9"]),
    ("chord-hmm", ["--lambda", "0.5"]),
    ("chord-hmm", ["--no-chord-constraint"]),
    ("note-hmm", ["--beta", "1,2"]),
    ("note-hmm", ["--gamma", "1,2"]),
    ("note-hmm", ["--zeta", "5"]),
    ("note-hmm", ["--truncate-overlaps"]),
])
@pytest.mark.parametrize("command", ["train", "tune", "scaling"])
def test_options_of_the_other_model_kind_are_refused(tmp_path, capsys, command, kind, flags):
    out = tmp_path / "out.txt"
    data = {"train": [], "tune": ["--valid", str(CORPUS)], "scaling": ["--test", str(CORPUS)]}
    argv = [command, str(CORPUS), *data[command], "--model-kind", kind, *flags]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flags[0]} does not apply to --model-kind {kind}\n"
    assert list(tmp_path.iterdir()) == []


def test_estimate_malformed_line_fails_cleanly(model_path, tmp_path, capsys):
    bad = _with_bad_onset(CORPUS / "101-1_fingering.txt", tmp_path / "bad.txt")
    assert main(["estimate", str(bad), "--model", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "pitch,message", [("²", "bad pitch token '²'"), ("Q4", "bad pitch token 'Q4'")]
)
def test_train_bad_pitch_token_names_file_and_line(tmp_path, capsys, pitch, message):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "bad.txt"
    bad.write_text(f"//Version: x\n\n0 0.0 0.5 {pitch} 64 64 0 1\n", encoding="utf-8")
    assert main(["train", str(corpus), "--out", str(tmp_path / "model.json")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 3: {message}\n"


def test_estimate_decreasing_onset_names_file_and_line(model_path, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "//Version: x\n0 1.0 1.5 C4 64 64 0 1\n\n1 0.5 1.0 D4 64 64 0 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "est.txt"
    code = main(["estimate", str(bad), "--model", str(model_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 4: onset 0.5 of note 1 precedes 1.0\n"
    )
    assert not out.exists()


def test_estimate_empty_piece_fails(model_path, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("//nothing\n")
    assert main(["estimate", str(empty), "--model", str(model_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_single_piece(capsys):
    code = main(
        [
            "evaluate",
            "--est",
            str(CORPUS / "107-2_fingering.txt"),
            "--gt",
            str(CORPUS / "107-1_fingering.txt"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "macro" in out and "66.7" in out


def test_evaluate_identical_files_scores_one_hundred(capsys):
    code = main(
        [
            "evaluate",
            "--est",
            str(CORPUS / "101-1_fingering.txt"),
            "--gt",
            str(CORPUS / "101-1_fingering.txt"),
        ]
    )
    assert code == 0
    assert "100.0  100.0  100.0  100.0" in capsys.readouterr().out.replace("   ", "  ")


def test_evaluate_directory_mode(model_path, tmp_path, capsys):
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    for name in ("101-1_fingering.txt", "107-1_fingering.txt"):
        out = est_dir / name
        assert main(
            ["estimate", str(CORPUS / name), "--model", str(model_path), "--out", str(out)]
        ) == 0
    code = main(
        ["evaluate", "--est", str(est_dir), "--gt", str(CORPUS), "--format", "table"]
    )
    assert code == 0
    table = capsys.readouterr().out
    rows = [line.split("\t") for line in table.strip().splitlines()]
    assert rows[0][0] == "piece"
    assert {r[0] for r in rows[1:]} == {
        "101", "101/rh", "101/lh", "107", "107/rh", "107/lh", "macro", "micro",
    }


def test_estimate_with_malformed_model_fails_cleanly(model_path, tmp_path, capsys):
    doc = json.loads(model_path.read_text())
    del doc["tables"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    out = tmp_path / "est.txt"
    args = ["estimate", str(CORPUS / "101-1_fingering.txt"), "--model", str(broken)]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "tables" in err
    assert not out.exists()


def test_estimate_with_deeply_nested_model_fails_cleanly(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    out = tmp_path / "est.txt"
    args = ["estimate", str(CORPUS / "101-1_fingering.txt"), "--model", str(deep)]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: model file is nested too deeply\n"
    assert not out.exists()


def test_failed_output_write_leaves_no_temp_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.mkdir()
    assert main(["train", str(CORPUS), "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(taken.iterdir()) == []


def test_evaluate_human_mode(capsys):
    assert main(["evaluate", "--human", "--gt", str(CORPUS), "--format", "table"]) == 0
    out = capsys.readouterr().out
    rows = {line.split("\t")[0] for line in out.strip().splitlines()[1:]}
    assert rows == {"107", "107/rh", "107/lh", "macro", "micro"}


def test_evaluate_human_mode_skips_malformed_piece(tmp_path, capsys):
    gt = tmp_path / "gt"
    shutil.copytree(CORPUS, gt)
    for annot in ("1", "2"):
        shutil.copy(gt / f"107-{annot}_fingering.txt", gt / f"109-{annot}_fingering.txt")
    _with_bad_onset(CORPUS / "107-2_fingering.txt", gt / "107-2_fingering.txt")
    assert main(["evaluate", "--human", "--gt", str(gt), "--format", "table"]) == 0
    captured = capsys.readouterr()
    rows = {line.split("\t")[0] for line in captured.out.strip().splitlines()[1:]}
    assert rows == {"109", "109/rh", "109/lh", "macro", "micro"}
    assert captured.err.startswith("skipping piece 107: ") and "line 2" in captured.err


def test_a_file_that_is_not_utf8_is_a_malformed_line_of_that_file(tmp_path, capsys):
    def spoil(path):  # one byte that is no UTF-8, opening the second line
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))

    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    spoil(corpus / "103-1_fingering.txt")
    assert main(["train", str(corpus), "--out", str(tmp_path / "model.json")]) == 1
    bad = corpus / "103-1_fingering.txt"
    assert capsys.readouterr().err == f"error: {bad}: line 2: not UTF-8 text\n"

    gt = tmp_path / "gt"
    shutil.copytree(CORPUS, gt)
    for annot in ("1", "2"):
        shutil.copy(gt / f"107-{annot}_fingering.txt", gt / f"109-{annot}_fingering.txt")
    spoil(gt / "107-2_fingering.txt")
    assert main(["evaluate", "--human", "--gt", str(gt), "--format", "table"]) == 0
    captured = capsys.readouterr()
    rows = {line.split("\t")[0] for line in captured.out.strip().splitlines()[1:]}
    assert rows == {"109", "109/rh", "109/lh", "macro", "micro"}
    bad = gt / "107-2_fingering.txt"
    assert captured.err == f"skipping piece 107: {bad}: line 2: not UTF-8 text\n"


def test_evaluate_ordering_invariant_on_rows(model_path, tmp_path, capsys):
    est_dir = tmp_path / "estimates"
    est_dir.mkdir()
    for piece in CORPUS.glob("*-1_fingering.txt"):
        out = est_dir / piece.name
        assert main(
            ["estimate", str(piece), "--model", str(model_path), "--out", str(out)]
        ) == 0
    assert main(
        ["evaluate", "--est", str(est_dir), "--gt", str(CORPUS), "--format", "table"]
    ) == 0
    table = capsys.readouterr().out
    for line in table.strip().splitlines()[1:]:
        cells = line.split("\t")
        m_gen, m_high, m_soft, m_rec = (float(c) for c in cells[7:11])
        assert m_gen <= m_high + 1e-12 <= m_rec + 2e-12 <= m_soft + 3e-12


def test_evaluate_alignment_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0.0 0.5 C4 80 80 0 1\n")
    code = main(
        [
            "evaluate",
            "--est",
            str(bad),
            "--gt",
            str(CORPUS / "101-1_fingering.txt"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_unannotated_estimate_fails_cleanly(tmp_path, capsys):
    gt = CORPUS / "101-1_fingering.txt"
    lines = [
        l for l in gt.read_text().splitlines() if l and not l.startswith("//")
    ]
    bare = tmp_path / "bare.txt"
    bare.write_text("".join("\t".join(l.split()[:7]) + "\n" for l in lines))
    code = main(["evaluate", "--est", str(bare), "--gt", str(gt)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_evaluate_content_mismatch_reports_position(tmp_path, capsys):
    gt = CORPUS / "101-1_fingering.txt"
    lines = [
        l for l in gt.read_text().splitlines() if l and not l.startswith("//")
    ]
    fields = lines[3].split("\t")
    fields[3] = "C8" if fields[3] != "C8" else "A0"  # perturb one pitch
    lines[3] = "\t".join(fields)
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(l + "\n" for l in lines))
    code = main(["evaluate", "--est", str(bad), "--gt", str(gt)])
    assert code == 1
    err = capsys.readouterr().err
    assert "position" in err


def test_analyze_outputs_tables(capsys):
    assert main(["analyze", str(CORPUS)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("j\tmatch_rate\trandom_model")
    assert "note-pair" in out


def test_one_alignment_message_for_estimates_and_ground_truth_sets(tmp_path, capsys):
    gt = CORPUS / "101-1_fingering.txt"
    text = gt.read_text()
    bad = tmp_path / "101-2_fingering.txt"
    cases = (
        (text.replace("\tF4\t", "\tF#4\t"), AlignmentMismatch,
         "note content differs at position 5 (F#4@0.75 vs F4@0.75)"),
        (text[: text.rindex("\n", 0, -1) + 1], LengthMismatch, "22 notes, expected 23"),
    )
    for bad_text, error, tail in cases:
        bad.write_text(bad_text)
        assert main(["evaluate", "--est", str(bad), "--gt", str(gt)]) == 1
        assert capsys.readouterr().err == f"error: estimate 101: {tail}\n"
        with pytest.raises(error) as raised:
            GroundTruthSet.from_pieces([load_piece(gt), load_piece(bad)])
        assert str(raised.value) == f"101/2: {tail}"


def test_analyze_marks_undefined_values_without_nan(tmp_path, capsys):
    # three annotators who never agree: M_2 = M_3 = 0
    for annotator, digits in enumerate(
        ([1, 2, 3, 4, 5, 1], [2, 3, 4, 5, 1, 2], [3, 4, 5, 1, 2, 3]), start=1
    ):
        (tmp_path / f"p-{annotator}_fingering.txt").write_text("".join(
            f"{i}\t{0.5 * i:.6f}\t{0.5 * i + 0.4:.6f}\t{midi_to_pitch(60 + i)}\t64\t64\t0\t{d}\n"
            for i, d in enumerate(digits)
        ))
    assert main(["analyze", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert out.splitlines()[:4] == [
        "j\tmatch_rate\trandom_model", "2\t0.0\t", "3\t0.0\t", "# power fit: undefined",
    ]


def test_analyze_refuses_an_empty_piece(tmp_path, capsys):
    for annotator in (1, 2):
        (tmp_path / f"p-{annotator}_fingering.txt").write_text("//no notes\n")
    assert main(["analyze", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: sequences must be non-empty\n"


@pytest.mark.parametrize("flags, name", [
    (["--epsilon", "inf"], "smoothing_epsilon"),
    (["--epsilon", "nan"], "smoothing_epsilon"),
    (["--alpha", "nan,nan"], "alpha"),
    (["--alpha", "0.5,-inf"], "alpha"),
    (["--delta-ms", "nan"], "chord_threshold"),
    (["--model-kind", "chord-hmm", "--epsilon", "inf"], "smoothing_epsilon"),
    (["--model-kind", "chord-hmm", "--beta", "nan,1"], "beta1"),
    (["--model-kind", "chord-hmm", "--gamma", "1,inf"], "gamma2"),
    (["--model-kind", "chord-hmm", "--delta-ms", "nan"], "delta"),
])
def test_train_refuses_non_finite_values(tmp_path, capsys, flags, name):
    out = tmp_path / "model.json"
    assert main(["train", str(CORPUS), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be finite and non-negative, got ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_chord_overflow_warning_is_one_line_per_command(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(CORPUS / "101-1_fingering.txt", data)
    # six simultaneous notes in each hand
    big = data / "big-1_fingering.txt"
    big.write_text("".join(
        f"{i}\t0.000000\t0.500000\t{midi_to_pitch(36 + 2 * i)}\t64\t64\t{i // 6}\t"
        f"{(1 - 2 * (i // 6)) * (i % 5 + 1)}\n"
        for i in range(12)
    ))
    message = "hand overflow, excluded from chord training: ['big']"
    out = tmp_path / "model.json"
    assert main(["train", str(data), "--model-kind", "chord-hmm", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        f"warning: {message}\ntrained chord-hmm on 2 pieces (35 notes)\n"
    )
    # every candidate's fit warns; the command prints it once
    assert main(["tune", str(data), "--valid", str(CORPUS), "--model-kind", "chord-hmm",
                 "--budget", "3", "--out", str(tmp_path / "trace.tsv")]) == 0
    assert capsys.readouterr().err == f"warning: {message}\n"
    with pytest.warns(UserWarning) as caught:
        train_model("chord-hmm", ChordHmmParams(), [load_piece(big)])
    assert [str(w.message) for w in caught] == [message]


def test_tune_writes_trace(tmp_path):
    out = tmp_path / "trace.tsv"
    code = main(
        [
            "tune",
            str(CORPUS),
            "--valid",
            str(CORPUS),
            "--budget",
            "3",
            "--order",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")  # seed and config echoed
    assert "command=tune" in lines[0] and "seed=0" in lines[0]
    assert lines[1].startswith("index")
    assert lines[-1].startswith("# best:")
    assert len(lines) == 1 + 1 + 3 + 1


def test_scaling_is_seed_reproducible(tmp_path):
    args = [
        "scaling",
        str(CORPUS),
        "--test",
        str(CORPUS),
        "--fractions",
        "0.5,1.0",
        "--repeats",
        "2",
        "--order",
        "1",
        "--seed",
        "7",
    ]
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "# fit:" in a.read_text()
    assert "seed=7" in a.read_text().splitlines()[0]


def test_scaling_refuses_an_empty_fraction_list(tmp_path, capsys):
    out = tmp_path / "scaling.tsv"
    args = ["scaling", str(CORPUS), "--test", str(CORPUS), "--fractions", ",", "--repeats", "1"]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: fractions must hold at least one fraction\n"
    assert not out.exists()


def test_chord_model_pipeline(tmp_path):
    model = tmp_path / "chord.json"
    assert main(
        ["train", str(CORPUS), "--out", str(model), "--model-kind", "chord-hmm"]
    ) == 0
    out = tmp_path / "est.txt"
    assert main(
        [
            "estimate",
            str(CORPUS / "102-1_fingering.txt"),
            "--model",
            str(model),
            "--out",
            str(out),
        ]
    ) == 0
    doc = json.loads(model.read_text())
    assert doc["kind"] == "chord-hmm"
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 25  # all notes annotated


# (onset, offset, midi, channel) rows.  Note kind: a six-note right-hand
# cluster, which no crossing-free fingering plays, so the decoder drops
# its crossing constraint.  Chord kind: a C4 held from a five-note chord
# into a three-note chord it tops, so its digit cannot be kept and the
# decoder relaxes that boundary.  Both have a left-hand part as well.
RELAXED_PIECES = {
    "note-hmm": [(0.0, 0.5, m, 0) for m in (60, 62, 64, 65, 67, 69)]
    + [(0.0, 0.5, 48, 1), (0.5, 1.0, 43, 1)],
    "chord-hmm": [(0.0, 2.0, 60, 0)] + [(0.0, 0.3, m, 0) for m in (62, 64, 65, 67)]
    + [(0.0, 0.5, 48, 1), (1.0, 1.4, 57, 0), (1.0, 1.4, 59, 0)],
}


@pytest.mark.parametrize("kind, warning", [
    ("note-hmm", "RH: no crossing-free fingering, constraint relaxed"),
    ("chord-hmm", "RH: sustain constraint relaxed at chords [1]"),
])
def test_relaxed_estimates_reload_to_their_oracle_scores(tmp_path, capsys, kind, warning):
    # the checks bench/run.py makes of every estimate it writes
    model_file, source, out = tmp_path / "model.json", tmp_path / "piece.txt", tmp_path / "est.txt"
    assert main(["train", str(CORPUS), "--out", str(model_file), "--model-kind", kind]) == 0
    source.write_text("".join(
        f"{i}\t{on:.6f}\t{off:.6f}\t{midi_to_pitch(m)}\t64\t80\t{channel}\n"
        for i, (on, off, m, channel) in enumerate(sorted(RELAXED_PIECES[kind]))
    ))
    capsys.readouterr()
    assert main(["estimate", str(source), "--model", str(model_file), "--out", str(out)]) == 0
    assert capsys.readouterr().err == f"warning: piece {warning}\n"
    model, written = load_model(model_file), load_piece(out)
    assert [replace(n, finger=None) for n in written.notes] == list(load_piece(source).notes)
    signed, results = estimate_piece(model, written)
    assert [n.finger.signed for n in written.notes] == signed
    for hand, part in zip((Hand.RH, Hand.LH), split_hands(written)):
        result = results[hand]
        if kind == "note-hmm":
            oracle = sequence_log_score(model, part, result.fingers, hand)
        else:
            chords = cluster_chords(part, model.params.delta, model.params.truncate_overlaps)
            oracle = chord_path_log_score(model, chords, hand, result.states)
        assert oracle.hex() == result.log_score.hex()


def test_estimate_zero_exponent_chord_model_fails_cleanly(tmp_path, capsys):
    # with no smoothing, the dyad's wide within-chord step was never seen:
    # its -inf factors times gamma2 = 0 are NaN, so no state scores finite
    model = tmp_path / "chord.json"
    assert main([
        "train", str(CORPUS), "--out", str(model), "--model-kind", "chord-hmm",
        "--epsilon", "0", "--gamma", "7.53,0",
    ]) == 0
    dyad = tmp_path / "dyad.txt"
    dyad.write_text(
        "0\t0.000000\t0.500000\tC4\t64\t80\t0\n"
        "1\t0.000000\t0.500000\tB5\t64\t80\t0\n"
    )
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", str(dyad), "--model", str(model)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: all chord state paths have zero probability\n"
    )
    assert not caught


def test_nested_dataset_layout(tmp_path, capsys):
    nested = tmp_path / "nested"
    for path in CORPUS.glob("*.txt"):
        piece = path.stem.split("-")[0]
        annot = path.stem.split("-")[1].split("_")[0]
        target = nested / piece
        target.mkdir(parents=True, exist_ok=True)
        shutil.copy(path, target / f"{annot}.txt")
    out = tmp_path / "model.json"
    assert main(["train", str(nested), "--out", str(out)]) == 0
    assert "8 pieces (146 notes)" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENT_FLAGS))
def test_tune_and_scaling_match_golden_outputs(tmp_path, capsys, name):
    command = name.split("_")[0]
    held_out = "--valid" if command == "tune" else "--test"
    out = tmp_path / name
    args = [command, str(CORPUS), held_out, str(CORPUS), *GOLDEN_EXPERIMENT_FLAGS[name]]
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_EXPERIMENTS / name).read_bytes()
    assert capsys.readouterr().err == ""


def test_no_command_builds_the_per_note_view(tmp_path, monkeypatch):
    built = []
    for name in ("notes", "fingers"):
        view = Piece.__dict__[name]

        def read(piece, name=name, view=view):
            if name not in piece.__dict__:
                built.append(name)
            return view.__get__(piece, Piece)

        monkeypatch.setattr(Piece, name, property(read))
    piece, est, out = CORPUS / "107-1_fingering.txt", tmp_path / "est", tmp_path / "out"
    est.mkdir()
    models = {kind: str(tmp_path / f"{kind}.json") for kind in ("note-hmm", "chord-hmm")}
    commands = [
        *(["train", str(CORPUS), "--out", path, "--model-kind", kind]
          for kind, path in models.items()),
        ["estimate", str(piece), "--model", models["note-hmm"], "--out",
         str(est / "107-e_fingering.txt")],
        ["estimate", str(piece), "--model", models["chord-hmm"], "--out", str(tmp_path / "c.txt")],
        ["evaluate", "--est", str(est), "--gt", str(CORPUS), "--out", str(out)],
        ["evaluate", "--est", str(tmp_path / "c.txt"), "--gt", str(piece),
         str(CORPUS / "107-2_fingering.txt"), "--out", str(out)],
        ["evaluate", "--human", "--gt", str(CORPUS), "--out", str(out)],
        ["analyze", str(CORPUS), "--out", str(out)],
        *(["tune", str(CORPUS), "--valid", str(CORPUS), "--budget", "2", "--model-kind", kind,
           "--out", str(out)] for kind in models),
        ["scaling", str(CORPUS), "--test", str(CORPUS), "--repeats", "1", "--out", str(out)],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert built == []
    # the spy sees a view being built
    assert len(load_piece(piece).notes) and built == ["notes", "fingers"]


def test_no_chord_command_builds_a_chord_object(tmp_path, monkeypatch):
    built = []
    for cls in (Chord, ChordComponent):
        init = cls.__init__

        def spy(self, *args, cls=cls, init=init, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    piece, est, out = CORPUS / "107-1_fingering.txt", tmp_path / "est", tmp_path / "out"
    est.mkdir()
    model, kind = str(tmp_path / "chord.json"), ["--model-kind", "chord-hmm"]
    commands = [
        ["train", str(CORPUS), "--out", model, *kind],
        ["estimate", str(piece), "--model", model, "--out", str(est / "107-e_fingering.txt")],
        ["evaluate", "--est", str(est), "--gt", str(CORPUS), "--out", str(out)],
        ["tune", str(CORPUS), "--valid", str(CORPUS), "--budget", "2", *kind, "--out", str(out)],
        ["scaling", str(CORPUS), "--test", str(CORPUS), "--repeats", "1", *kind,
         "--out", str(out)],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert built == []
    # the spy sees the view being built
    assert cluster_chords(split_hands(load_piece(piece))[0], ChordHmmParams().delta)
    assert set(built) == {"Chord", "ChordComponent"}

@pytest.mark.parametrize("command", [
    ["scaling", str(CORPUS), "--test", str(CORPUS), "--repeats", "1"],
    ["analyze", str(CORPUS)],
])
def test_a_command_leaves_numpy_ma_unimported(command, tmp_path):
    # numpy.ma takes tens of milliseconds to import, and np.unique of floats imports it
    script = (f"import sys\nfrom pianofinger.cli import main\n"
              f"assert main({[*command, '--out', str(tmp_path / 'out')]!r}) == 0\n"
              f"print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(DATA.parent / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
