"""Benchmark of the pianofinger CLI workflows.

Run from the root of a checkout::

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` sets the workload up five times (set-up time is the
median), then repeats one pass of the workload's CLI workflow through
``pianofinger.cli.main`` until ``--seconds`` have passed, checks the
outputs and prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass plus direct layer probes and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list the same metrics for people, with extra ones and sample
counts.  ``--workload all`` runs every workload both ways in child
processes and prints all of it.

Everything is read and written inside the checkout: the library from
``src/``, ``data/sample_corpus``, and scratch files, run records and
span dumps under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import LAYERS, Tracer

SETUP_REPS = 5
MIN_PASSES = 3
LADDER_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("train.note.notes_per_s", "notes/s"),
    ("train.chord.notes_per_s", "notes/s"),
    ("estimate.note.notes_per_s", "notes/s"),
    ("estimate.chord.notes_per_s", "notes/s"),
    ("estimate.note.piece_ms.p50", "ms"),
    ("estimate.note.piece_ms.p90", "ms"),
    ("evaluate.notes_per_s", "note_gt/s"),
    ("analyze.notes_per_s", "note_ann/s"),
)

# throughput metrics that only the tune workload has; printed, not gated
TUNE_ONLY = (
    ("tune.note.candidates_per_s", "1/s", "tune.note"),
    ("tune.chord.candidates_per_s", "1/s", "tune.chord"),
    ("scaling.repeats_per_s", "1/s", "scaling"),
)

STEP_RATES = (
    ("train.note.notes_per_s", "train.note"),
    ("train.chord.notes_per_s", "train.chord"),
    ("estimate.note.notes_per_s", "estimate.note"),
    ("estimate.chord.notes_per_s", "estimate.chord"),
    ("evaluate.notes_per_s", "evaluate"),
    ("analyze.notes_per_s", "analyze"),
)


def per_layer_names() -> list:
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    names += [
        ("pig_io.parse.us_per_line", "us"),
        ("pig_io.serialize.us_per_note", "us"),
        ("dataset.load.us_per_line", "us"),
        ("pitch_space.displacement.ns_per_call", "ns"),
        ("note_hmm.train.us_per_note", "us"),
        ("note_hmm.decode.us_per_note", "us"),
    ]
    for order in workloads.ORDERS:
        for texture in ("scale", "walk"):
            names += [
                (f"note_hmm.decode.us_per_note.o{order}.{texture}.n{n}", "us")
                for n in workloads.LADDER
            ]
    for order in workloads.ORDERS:
        names += [(f"note_hmm.decode.slope.o{order}.{t}", "1") for t in ("scale", "walk")]
    names += [
        ("note_hmm.sequence_log_score.us_per_note", "us"),
        ("note_hmm.crossing_fallbacks", "count"),
        ("chord_hmm.cluster.us_per_note", "us"),
        ("chord_hmm.train.us_per_note", "us"),
        ("chord_hmm.decode.us_per_note", "us"),
    ]
    for texture in ("scale", "walk"):
        names += [
            (f"chord_hmm.decode.us_per_note.{texture}.n{n}", "us") for n in workloads.LADDER
        ]
    names += [(f"chord_hmm.decode.slope.{t}", "1") for t in ("scale", "walk")]
    names += [
        ("chord_hmm.edges_per_chord", "count"),
        ("chord_hmm.relaxed_boundaries", "count"),
        ("chord_hmm.excluded_pieces", "count"),
        ("eval_measures.match_rate_report.us_per_note_gt", "us"),
        ("eval_measures.recombination.us_per_note_gt", "us"),
        ("agreement.analyze_sets.us_per_note_annotator", "us"),
        ("model_io.dumps_ms", "ms"),
        ("model_io.loads_ms", "ms"),
        ("model_io.bytes", "count"),
    ]
    for kind in ("note", "chord"):
        names += [
            (f"experiments.candidate_s.{kind}", "s"),
            (f"experiments.train_model_s.{kind}", "s"),
            (f"experiments.evaluate_model_s.{kind}", "s"),
            (f"experiments.train_share.{kind}", "1"),
        ]
    names += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return names


# --- environment ----------------------------------------------------------

def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library(root: Path):
    """Import pianofinger from the checkout's ``src/``."""
    src = root / "src"
    if not (src / "pianofinger" / "__init__.py").is_file():
        fail(f"no pianofinger package under {src}; run from a checkout root")
    if not (root / "data" / "sample_corpus").is_dir():
        fail("data/sample_corpus is missing")
    sys.path.insert(0, str(src))
    import pianofinger
    import pianofinger.cli

    if Path(pianofinger.__file__).resolve().parent != (src / "pianofinger").resolve():
        fail(f"imported pianofinger from {pianofinger.__file__}, not {src}")
    return pianofinger


def import_seconds(root: Path) -> tuple:
    """SETUP_REPS fresh interpreters starting up and importing the CLI, as
    every command-line call pays it; see ``timed_reps``."""
    code = "import sys; sys.path.insert(0, 'src'); import pianofinger.cli"
    return timed_reps(
        lambda: subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
    )


@contextlib.contextmanager
def one_cpu():
    """Run on the lowest CPU the process may use.  The workloads are one
    thread by design; on one CPU the reference kernel and the measured
    code (child processes too) share whatever slows that CPU down, which
    the scaling by the kernel assumes."""
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(allowed)})
    except OSError:
        pass  # not allowed here: run unpinned
    try:
        yield
    finally:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, allowed)


def commit_of(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = root / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- host speed -------------------------------------------------------------
#
# The host's speed drifts by a third over tens of seconds, with CPU time
# tracking wall time, so raw times of one commit spread more from run to
# run than the regressions the bounds must catch.  Before every timed
# operation the run times a fixed kernel that no library change can touch
# (a Python loop over small numpy arrays, like the decoders), and every
# end-to-end time is scaled by REF_S / (the kernel's local median time):
# it reads as the time at a host speed where the kernel takes REF_S.  Raw
# times are printed and recorded beside the scaled ones.

REF_S = 0.0015
# A run whose kernel is this much slower during the workflow than during
# set-up (before any library call) fails a check: a change that leaves
# work running in the process would otherwise scale its own cost away.
# Host drift alone moved the ratio between 0.6 and 1.7.
KERNEL_DRIFT_MAX = 2.5
_REF_TABLE = np.linspace(-1.0, 0.0, 125).reshape(25, 5)


def reference_kernel_s() -> float:
    t0 = time.perf_counter()
    dp, acc = np.zeros(25), 0
    for i in range(120):
        scores = dp[:, None] + _REF_TABLE
        acc += int(scores.argmax(axis=0)[i % 5]) + (i * i) % 7
        dp = np.repeat(scores.max(axis=0), 5) * 0.5
    return time.perf_counter() - t0


def timed_reps(fn) -> tuple:
    """Call ``fn`` SETUP_REPS times; returns (median seconds raw, median
    seconds scaled, kernel times).  Each call is scaled by REF_S over the
    mean of the kernel's median of five timings just before and just
    after it."""
    kernels = [statistics.median(reference_kernel_s() for _ in range(5))]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        kernels.append(statistics.median(reference_kernel_s() for _ in range(5)))
    scaled = [t * REF_S / statistics.mean(k) for t, k in zip(times, zip(kernels, kernels[1:]))]
    return statistics.median(times), statistics.median(scaled), kernels


def digest_dir(path: Path, skip=()) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        rel = f.relative_to(path)
        if rel.parts[0] in skip:
            continue
        h.update(str(rel).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


INPUT_DIRS = ("train", "test", "valid", "ladder")


# --- running the workflow -------------------------------------------------

class Counter:
    """Attempted and failed operations; failed checks also make the run
    incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.notes = []

    def op(self, ok: bool, what: str = "", check: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.incorrect += check
            if len(self.notes) < 20:
                self.notes.append(what)


def run_pass(cli_main, wl, counter: Counter, tracer=None):
    """One pass of the workload's CLI calls; returns (records, wall s).

    A record is (op index, step, seconds, work units, median of three
    reference kernel timings taken just before the call)."""
    records = []
    t_pass = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.request_id = i + 1
        for _ in range(op.repeat):
            ref = statistics.median(reference_kernel_s() for _ in range(3))
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = cli_main(list(op.argv))
            except Exception as exc:  # a traceback is a failed operation, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            counter.op(rc == 0, f"{op.step} {' '.join(op.argv[:2])}: exit {rc} "
                       f"{sink.getvalue()[-200:]}")
            records.append((i, op.step, dt, op.units, ref))
    return records, time.perf_counter() - t_pass


def check_outputs(pf, wl, counter: Counter) -> dict:
    """Correctness checks on the last pass's outputs, through the public
    functions.  Returns facts the per-layer metrics use."""
    models = {}
    edges = chords_total = 0
    for est in wl.estimates:
        what = f"estimate {est.kind} {est.source.name}"
        try:
            model = models.get(est.model)
            if model is None:
                model = models[est.model] = pf.load_model(est.model)
            piece = pf.dataset.load_piece(est.source)
            out = pf.dataset.load_piece(est.out)
            content = lambda p: [
                (n.note_id, n.onset, n.offset, n.pitch, n.midi, n.onset_velocity,
                 n.offset_velocity, n.channel) for n in p.notes
            ]
            ok = content(piece) == content(out)
            signed, results = pf.estimate_piece(model, piece)
            ok &= [f.signed for f in out.fingers] == list(signed)
            for hand, part in zip((pf.Hand.RH, pf.Hand.LH), pf.split_hands(piece)):
                if len(part) == 0:
                    continue
                res = results[hand]
                if est.kind == "note":
                    oracle = pf.sequence_log_score(model, part, res.fingers, hand)
                else:
                    params = model.params
                    chords = pf.cluster_chords(part, params.delta, params.truncate_overlaps)
                    oracle = pf.chord_path_log_score(model, chords, hand, res.states)
                    sizes = [len(pf.enumerate_states(c, hand)) for c in chords]
                    edges += sum(a * b for a, b in zip(sizes, sizes[1:]))
                    chords_total += len(chords)
                ok &= float(oracle).hex() == float(res.log_score).hex()
            counter.op(ok, what, check=True)
        except pf.FingeringError as exc:  # a refusal by the library
            counter.op(False, f"{what}: {type(exc).__name__}: {exc}")
        except (OSError, KeyError, ValueError) as exc:  # output missing or garbled
            counter.op(False, f"{what}: {type(exc).__name__}: {exc}", check=True)
    for report in wl.reports:
        ok = True
        try:
            lines = report.read_text(encoding="utf-8").splitlines()
            header = lines[0].split("\t")
            cols = [header.index(f"{m}_frac") for m in ("m_gen", "m_high", "m_rec", "m_soft")]
            for line in lines[1:]:
                cells = line.split("\t")
                gen_, high, rec, soft = (float(cells[c]) for c in cols)
                ok &= gen_ <= high <= rec <= soft
        except (OSError, IndexError, ValueError):
            ok = False
        counter.op(ok, f"match-rate order in {report.name}", check=True)
    return {"edges_per_chord": edges / chords_total if chords_total else 0.0}


# --- metrics ----------------------------------------------------------------

def end_to_end(passes, setup_s, scaled: bool):
    """Each CLI call of the workflow at its median over the run's passes
    (and repeats), then summed per step; call latency percentiles pool
    every call.  With ``scaled`` every call's time is first scaled to the
    reference host speed by the mean kernel time just before and just
    after it."""
    flat = [r for recs in passes for r in recs]
    refs = [r[4] for r in flat]
    times = [
        r[2] * REF_S / statistics.mean(refs[k : k + 2]) if scaled else r[2]
        for k, r in enumerate(flat)
    ]
    per_op = {}
    for r, t in zip(flat, times):
        per_op.setdefault(r[0], []).append(t)
    medians = {i: statistics.median(ts) for i, ts in per_op.items()}
    steps = {}
    for i, (step, units) in {r[0]: (r[1], r[3]) for r in passes[0]}.items():
        total = steps.setdefault(step, [0.0, 0.0])
        total[0] += units
        total[1] += medians[i]
    note_ms = [t * 1e3 for r, t in zip(flat, times) if r[1] == "estimate.note"]
    m = {
        "setup_s": setup_s,
        "wall_s": sum(medians.values()),
        "peak_rss_mb": peak_rss_mb(),
        "estimate.note.piece_ms.p50": statistics.median(note_ms),
        "estimate.note.piece_ms.p90": statistics.quantiles(note_ms, n=10)[8]
        if len(note_ms) > 1 else note_ms[0],
    }
    for name, step in STEP_RATES + tuple((n, s) for n, _, s in TUNE_ONLY):
        if step in steps:
            m[name] = steps[step][0] / steps[step][1]
    return m


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def _us_per(spans, key):
    units = sum(f.get(key, 0) for _, _, f in spans)
    return sum(d for _, d, _ in spans) / 1e3 / units if units else 0.0


def _slope(points):
    """Least-squares slope of log(time) against log(n)."""
    if len(points) < 2:
        return 0.0
    x = np.log([n for n, _ in points])
    y = np.log([n * us for n, us in points])
    return float(np.polyfit(x, y, 1)[0])


def per_layer(tr: Tracer, workflow: set, checks: set, facts: dict) -> dict:
    m = {}
    selfs = tr.self_times(workflow)
    for layer in LAYERS:
        ns, calls = selfs.get(layer, (0, 0))
        m[f"{layer}.self_s"] = ns / 1e9
        m[f"{layer}.calls"] = calls

    def named(name, requests=workflow):
        return tr.spans_named(name, requests)

    m["pig_io.parse.us_per_line"] = _us_per(named("pig_io.parse_fingering_file"), "notes")
    m["pig_io.serialize.us_per_note"] = _us_per(
        named("pig_io.serialize_fingering_file"), "notes"
    )
    outer = [
        s for name in ("dataset.load_piece", "dataset.load_corpus",
                       "dataset.load_ground_truth_sets")
        for s in named(name)
        if tr.parent[s[0]] < 0 or not tr.name_of(tr.parent[s[0]]).startswith("dataset.")
    ]
    m["dataset.load.us_per_line"] = _us_per(outer, "notes")
    m["pitch_space.displacement.ns_per_call"] = facts["displacement_ns"]
    m["note_hmm.train.us_per_note"] = _us_per(named("note_hmm.train"), "notes")
    decodes = named("note_hmm.decode_viterbi")
    m["note_hmm.decode.us_per_note"] = _us_per(decodes, "notes")

    ladder = facts.get("ladder", {})
    for order in workloads.ORDERS:
        for texture in ("scale", "walk"):
            points = []
            for n in workloads.LADDER:
                us = ladder.get(("note", order, f"{texture}{n}"), 0.0)
                m[f"note_hmm.decode.us_per_note.o{order}.{texture}.n{n}"] = us
                if us:
                    points.append((n, us))
            m[f"note_hmm.decode.slope.o{order}.{texture}"] = _slope(points)
    m["note_hmm.sequence_log_score.us_per_note"] = _us_per(
        named("note_hmm.sequence_log_score", checks), "notes"
    )
    m["note_hmm.crossing_fallbacks"] = sum(f.get("fallback", 0) for _, _, f in decodes)
    m["chord_hmm.cluster.us_per_note"] = _us_per(named("chord_hmm.cluster_chords"), "notes")
    m["chord_hmm.train.us_per_note"] = _us_per(named("chord_hmm.train_chord"), "notes")
    chord_decodes = named("chord_hmm.decode_chords")
    m["chord_hmm.decode.us_per_note"] = _us_per(chord_decodes, "notes")
    for texture in ("scale", "walk"):
        points = []
        for n in workloads.LADDER:
            us = ladder.get(("chord", 0, f"{texture}{n}"), 0.0)
            m[f"chord_hmm.decode.us_per_note.{texture}.n{n}"] = us
            if us:
                points.append((n, us))
        m[f"chord_hmm.decode.slope.{texture}"] = _slope(points)
    m["chord_hmm.edges_per_chord"] = facts["edges_per_chord"]
    m["chord_hmm.relaxed_boundaries"] = sum(f.get("relaxed", 0) for _, _, f in chord_decodes)
    m["chord_hmm.excluded_pieces"] = facts["excluded_pieces"]
    m["eval_measures.match_rate_report.us_per_note_gt"] = _us_per(
        named("eval_measures.match_rate_report"), "note_gt"
    )
    m["eval_measures.recombination.us_per_note_gt"] = _us_per(
        named("eval_measures.recombination_match_rate"), "note_gt"
    )
    m["agreement.analyze_sets.us_per_note_annotator"] = _us_per(
        named("agreement.analyze_sets"), "note_annotator"
    )
    dumps = named("model_io.dumps_model")
    m["model_io.dumps_ms"] = _median_or_zero([d / 1e6 for _, d, _ in dumps])
    m["model_io.loads_ms"] = _median_or_zero(
        [d / 1e6 for _, d, _ in named("model_io.loads_model")]
    )
    m["model_io.bytes"] = _median_or_zero([f["bytes"] for _, _, f in dumps if "bytes" in f])
    for kind in ("note", "chord"):
        train_s = facts[f"train_model_s.{kind}"]
        eval_s = facts[f"evaluate_model_s.{kind}"]
        m[f"experiments.candidate_s.{kind}"] = train_s + eval_s
        m[f"experiments.train_model_s.{kind}"] = train_s
        m[f"experiments.evaluate_model_s.{kind}"] = eval_s
        m[f"experiments.train_share.{kind}"] = (
            train_s / (train_s + eval_s) if train_s + eval_s else 0.0
        )
    m["trace.overhead_s"] = facts["overhead_s"]
    m["trace.spans"] = facts["spans"]
    return m


# --- probes (traced run only) ------------------------------------------------

def displacement_probe(pf) -> float:
    """ns per pitch_space.displacement call over all 88 x 88 key pairs in
    both representations; median of five sweeps, untraced."""
    keys = range(21, 109)
    reprs = list(pf.PitchRepresentation)
    sweeps = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for r in reprs:
            for a in keys:
                for b in keys:
                    pf.displacement(r, a, b, 15)
        sweeps.append((time.perf_counter_ns() - t0) / (len(reprs) * 88 * 88))
    return statistics.median(sweeps)


def ladder_probe(pf, wl) -> dict:
    """us per note of every (model, piece) pair the ``long`` workflow
    estimates: ``estimate_piece`` called directly on the models the pass
    trained, untraced, median of LADDER_REPS sweeps over all pairs (so a
    slow stretch of the host hits each pair at most once).  Keyed by
    (kind, note HMM order or 0, piece id)."""
    models = {m: pf.load_model(m) for m in {est.model for est in wl.estimates}}
    pairs = [
        (est.kind, models[est.model], pf.dataset.load_piece(est.source))
        for est in wl.estimates
    ]
    times = [[] for _ in pairs]
    for _ in range(LADDER_REPS):
        for (_, model, piece), ts in zip(pairs, times):
            t0 = time.perf_counter()
            pf.estimate_piece(model, piece)
            ts.append(time.perf_counter() - t0)
    return {
        (kind, model.config.order if kind == "note" else 0, piece.piece_id):
        statistics.median(ts) * 1e6 / len(piece)
        for (kind, model, piece), ts in zip(pairs, times)
    }


def experiments_probe(pf, wl) -> dict:
    """Time train_model and evaluate_model directly on the workload's
    training files and ground truths, as one tuning candidate does."""
    train = pf.dataset.load_corpus(wl.train_dir)
    gt_sets = pf.dataset.load_ground_truth_sets(wl.gt_dir)
    facts, excluded = {}, 0
    for part in pf.experiments.hand_parts(train):
        try:
            pf.cluster_chords(part, pf.ChordHmmParams().delta)
        except pf.errors.HandOverflow:
            excluded += 1
    facts["excluded_pieces"] = excluded
    for kind, config in (("note", pf.NoteHmmConfig()), ("chord", pf.ChordHmmParams())):
        t0 = time.perf_counter()
        model = pf.experiments.train_model(f"{kind}-hmm", config, train)
        t1 = time.perf_counter()
        pf.experiments.evaluate_model(model, gt_sets)
        t2 = time.perf_counter()
        facts[f"train_model_s.{kind}"] = t1 - t0
        facts[f"evaluate_model_s.{kind}"] = t2 - t1
    return facts


# --- one run ---------------------------------------------------------------

def set_up(name, seed, root, base: Path, counter: Counter):
    """Generate the inputs SETUP_REPS times; returns (workload, work dir)
    and what ``timed_reps`` returns."""
    made = []

    def generate():
        work = base / f"setup{len(made)}"
        work.mkdir()
        made.append((workloads.make(name, seed, root, work), work))

    timing = timed_reps(generate)
    digests = [digest_dir(work) for _, work in made]
    counter.op(len(set(digests)) == 1, "set-up is not deterministic", check=True)
    for _, work in made[1:]:
        shutil.rmtree(work)
    return (*made[0], *timing)


def run(args, root: Path) -> dict:
    pf = import_library(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    counter = Counter()
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        wl, work, gen_raw, gen_s, kernels = set_up(args.workload, args.seed, root, base, counter)
        import_raw, import_s, import_kernels = import_seconds(root)
        # the kernel's speed before any library call has run in this process
        kernel_setup = statistics.median(kernels + import_kernels)
        record["inputs"] = wl.n_inputs
        record["setup"] = {"generate_s": gen_s, "import_s": import_s,
                           "generate_raw_s": gen_raw, "import_raw_s": import_raw,
                           "reps": SETUP_REPS}
        cli_main = pf.cli.main
        if args.trace == 0:
            passes, digests = [], []
            t_start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
                passes.append(run_pass(cli_main, wl, counter)[0])
                digests.append(digest_dir(work, skip=INPUT_DIRS))
            for d in digests[1:]:
                counter.op(d == digests[0], "outputs differ between passes", check=True)
            check_outputs(pf, wl, counter)
            metrics = end_to_end(passes, gen_s + import_s, scaled=True)
            raw = end_to_end(passes, gen_raw + import_raw, scaled=False)
            record["samples"] = {
                "passes": len(passes),
                "estimate.note.calls": sum(r[1] == "estimate.note" for p in passes for r in p),
            }
            kernel_run = statistics.median(r[4] for p in passes for r in p)
            drift = kernel_run / kernel_setup
            record["reference_kernel_ms"] = {
                "setup": 1e3 * kernel_setup, "workflow": 1e3 * kernel_run, "drift": drift,
            }
            counter.op(drift <= KERNEL_DRIFT_MAX,
                       f"reference kernel {drift:.2f}x slower during the workflow than "
                       "at set-up: the library may slow it and scale its own cost away",
                       check=True)
            record["raw_metrics"] = raw
            record["digest"] = digests[0]
            names = list(END_TO_END)
            extra = [(n, u) for n, u, _ in TUNE_ONLY if n in metrics]
        else:
            _, untraced_wall = run_pass(cli_main, wl, counter)
            # the probes time the library directly, before the tracer is on
            facts = {"displacement_ns": displacement_probe(pf)}
            facts.update(experiments_probe(pf, wl))
            if args.workload == "long":
                facts["ladder"] = ladder_probe(pf, wl)
            tr = Tracer()
            tr.install()
            try:
                _, traced_wall = run_pass(cli_main, wl, counter, tr)
                workflow = set(range(1, len(wl.ops) + 1))
                facts["spans"] = len(tr)
                tr.request_id = -1
                facts.update(check_outputs(pf, wl, counter))
            finally:
                tr.uninstall()
            record["digest"] = digest_dir(work, skip=INPUT_DIRS)
            facts["overhead_s"] = traced_wall - untraced_wall
            metrics = per_layer(tr, workflow, {-1}, facts)
            record["samples"] = {"traced_passes": 1, "spans": len(tr),
                                 "ladder_reps": LADDER_REPS if "ladder" in facts else 0}
            record["walls_s"] = {"untraced": untraced_wall, "traced": traced_wall}
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            tr.write(trace_path)
            record["trace_file"] = str(trace_path.relative_to(root))
            names, extra = per_layer_names(), []
    finally:
        shutil.rmtree(base, ignore_errors=True)

    record["attempted"], record["failed"] = counter.attempted, counter.failed
    record["failed_frac"] = counter.failed / counter.attempted
    record["failures"] = counter.notes
    record["metrics"] = {n: {"value": metrics.get(n, 0.0), "unit": u} for n, u in names}
    record["extra_metrics"] = {n: {"value": metrics[n], "unit": u} for n, u in extra}
    (out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['why']}")
    print(f"# commit {record['commit']} nproc {record['nproc']} python "
          f"{record['python']} numpy {record['numpy']}")
    print(f"# samples {json.dumps(record['samples'], sort_keys=True)}")
    if "reference_kernel_ms" in record:
        print(f"# reference kernel ms {json.dumps(record['reference_kernel_ms'], sort_keys=True)}")
    raw = record.get("raw_metrics", {})
    if raw:
        print(f"# {'metric':50s} {'scaled':>16s} unit (raw)")
    for group in ("metrics", "extra_metrics"):
        for n, v in record[group].items():
            tail = f" ({raw[n]:.6g})" if n in raw else ""
            print(f"{n:52s} {v['value']:>16.6g} {v['unit']}{tail}")
    print(f"{'failed_frac':52s} {record['failed_frac']:>16.6g} failed/attempted "
          f"({counter.failed}/{counter.attempted})")
    for note in counter.notes:
        print(f"# failed: {note}")
    print(f"# output digest {record['digest']}")
    return {
        "correct": counter.incorrect == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": record["metrics"],
    }


def run_all(args, root: Path) -> int:
    """Every workload untraced, then every workload traced, each run in a
    child process."""
    status = 0
    for trace in (0, 1):
        for name in workloads.BUILDERS:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            status |= proc.returncode
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args, root)
    with one_cpu():
        result = run(args, root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
