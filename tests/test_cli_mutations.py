"""Damaged inputs through ``cli.main``: every run on a mutated fingering
file or model document ends in a result (exit 0) or in exactly one
``error:`` line (exit 1), with no traceback, no ``nan`` in any output and
no long run.  A message on stderr may quote a NaN its input holds.

The mutations come from a ``random.Random`` seeded per test, so each test
sees the same inputs on every run: lines, tab-separated fields and bytes
of the sample corpus's files, and leaves of the ``data/model_v1``
documents.
"""

import json
import random
import re
import time
from pathlib import Path

import pytest

from pianofinger.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
CORPUS = DATA / "sample_corpus"
FILES = sorted(CORPUS.glob("*_fingering.txt"))
MODELS = sorted((DATA / "model_v1").glob("*.json"))
NOTE_MODEL, CHORD_MODEL = (DATA / "model_v1" / name for name in ("note_o2_integral.json",
                                                                  "chord.json"))
NAN = re.compile(r"\bnan\b")  # as Python writes a float; JSON writes NaN
SECONDS = 5.0  # per run; an unmutated run takes milliseconds

# field values a damaged file may hold: out of range, of another type, or not numbers
TOKENS = ["", "x", "-1", "0", "6", "-6", "1_2", "5_1", "1.5", "nan", "inf", "-inf", "1e309",
          "C#4", "Cb-1", "Z9", "99999999999999999999", "0x10", "é", " "]
# leaf values a damaged model document may hold
LEAVES = [None, True, False, 0, -1, 2, 0.5, -0.5, 1e308, -1e308, float("nan"), float("inf"),
          float("-inf"), 10**30, "", "x", "lattice", [], {}, [1, 2], {"1": 0.0}]


def mutate_file(rng: random.Random, data: bytes) -> bytes:
    """One damage to a fingering file: a line dropped, repeated or moved,
    a field replaced, dropped or added, a byte replaced, or the file cut."""
    lines = data.split(b"\n")
    kind, i = rng.randrange(8), rng.randrange(len(lines))
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    elif kind in (3, 4, 5):
        fields = lines[i].split(b"\t")
        k = rng.randrange(len(fields))
        if kind == 3:
            fields[k] = rng.choice(TOKENS).encode()
        elif kind == 4:
            del fields[k]
        else:
            fields.insert(k, rng.choice(TOKENS).encode())
        lines[i] = b"\t".join(fields)
    else:
        data = b"\n".join(lines)
        k = rng.randrange(len(data) + 1)
        return data[:k] + bytes([rng.randrange(256)]) + data[k + 1 :] if kind == 6 else data[:k]
    return b"\n".join(lines)


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def mutate_model(rng: random.Random, doc):
    """One damage to a model document, in place: a leaf replaced by another
    value or type, or removed."""
    path = rng.choice(list(_leaves(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(LEAVES)


def run(capsys, argv, out: Path | None = None, quoted: bool = False) -> int:
    """``cli.main(argv)`` and the checks every run must pass; ``quoted``
    lets stderr quote the NaN of a damaged input."""
    start = time.perf_counter()
    try:
        status = main([str(a) for a in argv])
    except (Exception, SystemExit) as exc:  # a traceback, or a usage error
        pytest.fail(f"{argv} raised {exc!r}")
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    outputs = [captured.out] + ([] if quoted else [captured.err])
    if out is not None and out.exists():
        outputs.append(out.read_text(encoding="utf-8").replace("NaN", "nan"))
        out.unlink()
    assert status in (0, 1), argv
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == status, (argv, captured.err)
    assert "Traceback" not in captured.err, argv
    assert not any(NAN.search(text) for text in outputs), (argv, outputs)
    assert elapsed < SECONDS, (argv, elapsed)
    return status


@pytest.mark.parametrize("seed", range(8))
def test_mutated_fingering_files_end_in_a_result_or_one_error(seed, tmp_path, capsys):
    rng = random.Random(seed)
    statuses = []
    for case in range(5):
        source = rng.choice(FILES)
        data = source.read_bytes()
        for _ in range(rng.randint(1, 3)):
            data = mutate_file(rng, data)
        corpus = tmp_path / f"corpus{case}"
        corpus.mkdir()
        for path in FILES:
            (corpus / path.name).write_bytes(data if path == source else path.read_bytes())
        damaged, out = corpus / source.name, tmp_path / "out"
        quoted = re.search(rb"\bnan\b", data, re.I) is not None
        model = rng.choice([NOTE_MODEL, CHORD_MODEL])
        statuses.append(run(capsys, ["estimate", damaged, "--model", model], quoted=quoted))
        est, gt = (damaged, source) if rng.random() < 0.5 else (source, damaged)
        statuses.append(run(capsys, ["evaluate", "--est", est, "--gt", gt], quoted=quoted))
        statuses.append(run(capsys, ["analyze", corpus], quoted=quoted))
        for kind in ("note-hmm", "chord-hmm"):
            argv = ["train", corpus, "--out", out, "--model-kind", kind]
            statuses.append(run(capsys, argv, out, quoted))
    assert 1 in statuses  # the damage reaches the input checks


@pytest.mark.parametrize("seed", range(4))
def test_mutated_model_documents_end_in_a_result_or_one_error(seed, tmp_path, capsys):
    rng = random.Random(seed)
    texts = {path: path.read_text(encoding="utf-8") for path in MODELS}
    statuses = []
    for case in range(8):
        source = rng.choice(MODELS)
        doc = json.loads(texts[source])
        for _ in range(rng.randint(1, 2)):
            mutate_model(rng, doc)
        damaged, text = tmp_path / f"model{case}.json", json.dumps(doc)
        damaged.write_text(text, encoding="utf-8")
        piece = rng.choice(FILES)
        statuses.append(run(capsys, ["estimate", piece, "--model", damaged], quoted="NaN" in text))
    assert 1 in statuses
