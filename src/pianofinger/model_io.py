"""Versioned structured-text model files.

A model file is JSON with deterministic key ordering::

    {
      "format": "piano-fingering-model",
      "version": 1,
      "kind": "note-hmm" | "chord-hmm",
      "config": { ... },
      "tables": { ... }
    }

Every table is rows x columns of keyed leaves, the log probabilities,
written as ``{row: {column: leaf}}``; hands are ``"rh"``/``"lh"``:

* digit tables: rows are the digit contexts as comma-joined digits
  (``"1,2"``, ``""`` for the empty context), columns ``"1"``..``"5"``;
* output tables: rows are the 25 ``"f_prev,f"`` digit pairs, columns the
  displacement alphabet as ``"dx"`` (integral) or ``"dx,dy"`` (lattice);
* the chord ``initial_digit`` is a single bare row ``{"1": ..}``.

The config object holds one key per field of the kind's config class,
named without a trailing ``_`` (``lambda_`` is ``"lambda"``): enums as
their values, the symmetry set as a sorted list, tuples as lists.  The
chord kind adds ``"order": 1``.  The loader passes the values to the
config class, whose checks, ``_tables.check_fields``, apply.

The bytes are those ``json.dumps(doc, sort_keys=True, indent=1)`` writes,
though the writer renders them itself, straight from the table arrays:
keys sorted at every level, each item on its own line indented one space
per nesting level, ``,`` ending every item but the last, ``": "`` after
each key, a leaf written as ``float.__repr__`` writes it (``-0.0``,
``-5e-324``, ``-1e+16``), and no trailing newline.  Zero-probability cells
serialise as ``-Infinity``, which the JSON module reads back exactly, so
a reloaded model decodes bit-identically.

The loader refuses, with ``MalformedModel``, a missing or extra key in
the document or in its config, a config value of the wrong type or out
of range, any table whose rows or columns differ from the keys its
config implies (a missing or extra row, or an edited ``delta_p_max``), a
missing or extra table, any leaf that is not a number (true, false,
null, a string or a list), NaN or above 0, and a file nested too
deeply for the JSON parser.

The kind string is part of the file format, so this module also holds
``KINDS``, the one table that knows the model kinds: for each kind its
config and model classes, training counts and fit, decoder of a list of
hand parts, dict codec, command-line options and coefficient table (the
whole search box of ``experiments.tune``).  All else looks a kind up here.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import chord_hmm, note_hmm
from ._tables import N_DIGITS
from .chord_hmm import ChordHmmModel, ChordHmmParams
from .errors import FingeringError, MalformedModel
from .note_hmm import NoteHmmConfig, NoteHmmModel
from .pig_io import Hand
from .pitch_space import PitchRepresentation, alphabet_size, index_displacement

FORMAT = "piano-fingering-model"
VERSION = 1

_HAND_KEY = {Hand.RH: "rh", Hand.LH: "lh"}
_DIGITS = [str(d + 1) for d in range(N_DIGITS)]
_HANDS = [_HAND_KEY[h] for h in Hand]
_NUMBERS = {int, float}
_DOCUMENT = ["format", "version", "kind", "config", "tables"]
# how the JSON module spells the floats that repr() writes as inf and nan
_NON_FINITE = {"-inf": "-Infinity", "inf": "Infinity", "nan": "NaN"}


def _digit_rows(length: int) -> list:
    """Keys of all digit contexts of the given length, in flat-index order."""
    return [",".join(ctx) for ctx in itertools.product(_DIGITS, repeat=length)]


def _disp_keys(representation: PitchRepresentation, delta_p_max: int) -> list:
    """Keys of the displacement alphabet, in cell order."""
    keys = []
    for idx in range(alphabet_size(representation, delta_p_max)):
        d = index_displacement(representation, delta_p_max, idx)
        keys.append(str(d.dx) if d.dy is None else f"{d.dx},{d.dy}")
    return keys


@dataclass(frozen=True)
class _Axis:
    """One table axis as the writer lays it out: ``order`` lists the cell
    positions in sorted-key order and ``keys`` the matching JSON-quoted
    keys, so each key list is sorted once per model."""

    order: list
    keys: list


def _axis(keys: list) -> _Axis:
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return _Axis(order, [json.dumps(keys[i]) for i in order])


@dataclass(frozen=True)
class _Table:
    """A table to write as ``{row: {col: leaf}}`` in row-major cell order;
    ``rows=None`` writes a one-row table as a bare ``{col: leaf}``."""

    values: np.ndarray
    rows: _Axis | None
    cols: _Axis

    def render(self, depth: int, out: list) -> None:
        """Append the table's text at nesting ``depth`` to ``out``, rendered
        from the array: each distinct leaf (by its float64 bits, so 0.0 and
        -0.0 stay apart) is formatted once and gathered into its cells."""
        cols = self.cols
        grid = self.values.reshape(-1, len(cols.keys))
        if self.rows is not None:
            grid = grid[self.rows.order]
        grid = np.ascontiguousarray(grid[:, cols.order], dtype=np.float64)
        bits, where = np.unique(grid.view(np.int64).ravel(), return_inverse=True)
        leaves = np.array(
            [_NON_FINITE.get(s, s) for s in map(repr, bits.view(np.float64).tolist())],
            dtype=object,
        )
        cell_depth = depth + (1 if self.rows is None else 2)
        prefixes = np.array(
            [f"\n{' ' * cell_depth}{key}: " for key in cols.keys], dtype=object
        )
        close = "\n" + " " * (cell_depth - 1) + "}"
        lines = (prefixes + leaves[where.reshape(grid.shape)]).tolist()
        if self.rows is None:
            out += ("{", ",".join(lines[0]), close)
            return
        indent = "\n" + " " * (depth + 1)
        for i, (key, line) in enumerate(zip(self.rows.keys, lines)):
            out += (f"{',' if i else '{'}{indent}{key}: {{", ",".join(line), close)
        out.append("\n" + " " * depth + "}")


def _render(value, depth: int, out: list) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, sort_keys=True,
    indent=1)`` writes it at nesting ``depth``; each ``_Table`` is rendered
    from its array."""
    if isinstance(value, _Table):
        value.render(depth, out)
        return
    if not value or not isinstance(value, (dict, list, tuple)):
        out.append(json.dumps(value))  # a scalar, {} or []
        return
    indent = "\n" + " " * (depth + 1)
    if isinstance(value, dict):
        brackets = "{}"
        items = [(f"{indent}{json.dumps(k)}: ", v) for k, v in sorted(value.items())]
    else:
        brackets = "[]"
        items = [(indent, v) for v in value]
    out.append(brackets[0])
    for i, (head, item) in enumerate(items):
        out.append("," + head if i else head)
        _render(item, depth + 1, out)
    out.append("\n" + " " * depth + brackets[1])


def _decode(data, rows, cols: list) -> np.ndarray:
    """The inverse of writing a ``_Table``, as a ``(len(rows), len(cols))`` array.

    Every object must hold exactly the expected keys, and every leaf must
    be a log probability, a number at most 0: numpy would read a
    true/false leaf as 1/0 and a null leaf as NaN.
    """
    if rows is None:
        values = _leaves(data, cols)
    else:
        values = [_leaves(row, cols) for row in _keyed(data, rows)]
    table = np.array(values)
    if table.dtype.kind not in "if" or not (table <= 0).all():
        raise ValueError("a leaf is NaN, above 0 or out of range")
    return table.astype(float)


def _leaves(data, keys: list) -> list:
    """``_keyed`` for a row of leaves, which must all be JSON numbers."""
    values = _keyed(data, keys)
    if not set(map(type, values)) <= _NUMBERS:
        raise ValueError("a leaf is not a number")
    return values


def _keyed(data, keys: list) -> list:
    """The values of a JSON object whose keys are exactly ``keys``, in order."""
    if not isinstance(data, dict):
        raise TypeError(f"expected an object, got {type(data).__name__}")
    try:
        if len(data) == len(keys):
            return [data[k] for k in keys]
    except KeyError:
        pass
    missing = [k for k in keys if k not in data]
    extra = sorted(data.keys() - set(keys))
    raise ValueError(
        f"keys differ from the format's: missing {missing[:3]}, extra {extra[:3]}"
    )


def _json_value(value):
    """A config field's value as v1 files hold it."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):  # a numpy scalar, which configs accept
        return value.item()
    if isinstance(value, frozenset):
        return sorted(_json_value(v) for v in value)
    return list(value) if isinstance(value, tuple) else value


def _config_to_dict(config) -> dict:
    """A config object as a v1 config object: one key per field, named
    without a trailing ``_`` (``lambda_`` -> ``"lambda"``)."""
    return {f.name.rstrip("_"): _json_value(getattr(config, f.name)) for f in fields(config)}


def _config_from_dict(cls, data, **constants):
    """The inverse of ``_config_to_dict``: ``data`` must hold exactly the
    keys it writes for ``cls`` plus those of ``constants``, each with its
    value (and type)."""
    names = [f.name for f in fields(cls)]
    values = _keyed(data, [name.rstrip("_") for name in names] + list(constants))
    for (key, expected), value in zip(constants.items(), values[len(names):]):
        if type(value) is not type(expected) or value != expected:
            raise ValueError(f"{key} must be {expected!r}, got {value!r}")
    return cls(**dict(zip(names, values)))


# --- note HMM ------------------------------------------------------------

def _note_to_dict(model: NoteHmmModel) -> tuple:
    cfg = model.config
    contexts = [_axis(_digit_rows(k)) for k in range(cfg.order + 1)]
    digits, pairs = _axis(_DIGITS), _axis(_digit_rows(2))
    disps = _axis(_disp_keys(cfg.pitch_representation, cfg.delta_p_max))
    tables = {
        "initial": [
            _Table(model.log_initial[k], contexts[k], digits)
            for k in range(cfg.order)
        ],
        "transition": _Table(model.log_transition, contexts[cfg.order], digits),
        "output": {
            _HAND_KEY[hand]: {
                str(lag + 1): _Table(table, pairs, disps)
                for lag, table in enumerate(model.log_output[hand])
            }
            for hand in Hand
        },
    }
    return _config_to_dict(cfg), tables


def _note_from_dict(data: dict, tables: dict) -> NoteHmmModel:
    config = _config_from_dict(NoteHmmConfig, data)
    contexts = [_digit_rows(k) for k in range(config.order + 1)]
    pairs = _digit_rows(2)
    disps = _disp_keys(config.pitch_representation, config.delta_p_max)
    initial, transition, output = _keyed(tables, ["initial", "transition", "output"])
    if not isinstance(initial, list) or len(initial) != config.order:
        raise ValueError(f"expected {config.order} initial tables")
    lags = [str(lag + 1) for lag in range(config.order)]
    return NoteHmmModel(
        config=config,
        log_initial=[_decode(t, contexts[k], _DIGITS) for k, t in enumerate(initial)],
        log_transition=_decode(transition, contexts[config.order], _DIGITS),
        log_output={
            hand: [
                _decode(t, pairs, disps).reshape(N_DIGITS, N_DIGITS, -1)
                for t in _keyed(by_lag, lags)
            ]
            for hand, by_lag in zip(Hand, _keyed(output, _HANDS))
        },
    )


def _decode_note_parts(model: NoteHmmModel, parts) -> list:
    return [
        result if isinstance(result, FingeringError) else (result.fingers, result)
        for result in note_hmm.decode_parts(model, parts)
    ]


def _note_coefficients(config: NoteHmmConfig) -> dict:
    alpha = {f"alpha{i}": (a, (0.0, 2.0)) for i, a in enumerate(config.alpha, 1)}
    lam = {f"lambda{i}": (v, (0.0, 1.0)) for i, v in enumerate(config.lambda_, 1)}
    return {**alpha, **lam}


def _note_set_coefficients(config: NoteHmmConfig, values: dict) -> NoteHmmConfig:
    """Lambdas that sum above 1 are scaled back onto the simplex."""
    alpha = [values[f"alpha{i}"] for i in range(1, config.order + 1)]
    lam = [values[f"lambda{i}"] for i in range(1, config.order)]
    total = sum(lam)
    if total > 1.0:
        lam = [v / total for v in lam]
    return replace(config, alpha=tuple(alpha), lambda_=tuple(lam))


def _note_from_args(args) -> NoteHmmConfig:
    return NoteHmmConfig(
        order=args.order,
        pitch_representation=args.pitch,
        symmetries=[s for s in args.symmetry.split("+") if s != "none"],
        delta_p_max=args.delta_p_max,
        chord_threshold=args.delta_ms / 1000.0,
        alpha=args.alpha,
        lambda_=args.lambda_,
        smoothing_epsilon=args.epsilon,
        chord_constraint=not args.no_chord_constraint,
    )


def _note_describe(config: NoteHmmConfig, args) -> str:
    return (
        f"note-hmm(order={config.order},pitch={config.pitch_representation.value},"
        f"symmetry={args.symmetry},alpha={list(config.alpha)},"
        f"lambda={list(config.lambda_)},delta_ms={args.delta_ms},"
        f"delta_p_max={config.delta_p_max},constraint={config.chord_constraint})"
    )


# --- chord HMM -----------------------------------------------------------

def _chord_to_dict(model: ChordHmmModel) -> tuple:
    digits, pairs = _axis(_DIGITS), _axis(_digit_rows(2))
    disps = _axis(_disp_keys(PitchRepresentation.LATTICE, model.params.delta_p_max))
    tables = {
        "initial_digit": _Table(model.log_initial_digit, None, digits),
        "transition_across": _Table(model.log_trans_across, digits, digits),
        "transition_within": _Table(model.log_trans_within, digits, digits),
        "output_across": {
            _HAND_KEY[h]: _Table(model.log_out_across[h], pairs, disps) for h in Hand
        },
        "output_within": {
            _HAND_KEY[h]: _Table(model.log_out_within[h], pairs, disps) for h in Hand
        },
    }
    # v1 files carry the chord transition order, which is always 1
    return {**_config_to_dict(model.params), "order": 1}, tables


def _chord_from_dict(data: dict, tables: dict) -> ChordHmmModel:
    params = _config_from_dict(ChordHmmParams, data, order=1)
    digits, pairs = _digit_rows(1), _digit_rows(2)
    disps = _disp_keys(PitchRepresentation.LATTICE, params.delta_p_max)
    initial, t_across, t_within, o_across, o_within = _keyed(tables, [
        "initial_digit", "transition_across", "transition_within",
        "output_across", "output_within",
    ])

    def output(by_hand) -> dict:
        return {
            h: _decode(t, pairs, disps).reshape(N_DIGITS, N_DIGITS, -1)
            for h, t in zip(Hand, _keyed(by_hand, _HANDS))
        }

    return ChordHmmModel(
        params=params,
        log_initial_digit=_decode(initial, None, _DIGITS),
        log_trans_across=_decode(t_across, digits, _DIGITS),
        log_trans_within=_decode(t_within, digits, _DIGITS),
        log_out_across=output(o_across),
        log_out_within=output(o_within),
    )


def _chord_coefficients(config: ChordHmmParams) -> dict:
    bounds = dict.fromkeys(("beta1", "beta2", "gamma1", "gamma2"), (0.0, 10.0))
    bounds["zeta"] = (0.0, 2.0)
    return {name: (getattr(config, name), b) for name, b in bounds.items()}


def _pair(name: str, values, default: tuple) -> tuple:
    """A two-value option (across, within), or ``default`` when not given."""
    if values is None:
        return default
    if len(values) != 2:
        raise ValueError(f"{name} needs 2 values (across,within), got {len(values)}")
    return values


def _chord_from_args(args) -> ChordHmmParams:
    defaults = ChordHmmParams()
    beta = _pair("beta", args.beta, (defaults.beta1, defaults.beta2))
    gamma = _pair("gamma", args.gamma, (defaults.gamma1, defaults.gamma2))
    return ChordHmmParams(
        beta1=beta[0],
        beta2=beta[1],
        gamma1=gamma[0],
        gamma2=gamma[1],
        zeta=defaults.zeta if args.zeta is None else args.zeta,
        delta=args.delta_ms / 1000.0,
        delta_p_max=args.delta_p_max,
        smoothing_epsilon=args.epsilon,
        truncate_overlaps=args.truncate_overlaps,
    )


def _chord_describe(config: ChordHmmParams, args) -> str:
    return (
        f"chord-hmm(beta=[{config.beta1},{config.beta2}],"
        f"gamma=[{config.gamma1},{config.gamma2}],zeta={config.zeta},"
        f"delta_ms={args.delta_ms},delta_p_max={config.delta_p_max},"
        f"truncate_overlaps={config.truncate_overlaps})"
    )


# --- the kind table --------------------------------------------------------

@dataclass(frozen=True)
class ModelKind:
    """Everything that differs between the model kinds.  Model functions
    are looked up in their modules at call time, so a profiler or test
    double that rebinds them there is seen."""

    config: type
    model: type
    count: Callable          # (single-hand parts, config) -> additive counts
    fit: Callable            # (counts, config) -> model
    decode_parts: Callable   # (model, [(part, hand)]) -> per part (digits per note,
                             # result) or the FingeringError it raised
    to_dict: Callable        # model -> (config dict, tables dict of _Table), format v1
    from_dict: Callable      # (config dict, tables dict) -> model
    coefficients: Callable   # config -> {name: (value, (low, high))}, the tuning box
    set_coefficients: Callable  # (config, every coefficient's value by name) -> config
    from_args: Callable      # command-line options -> config
    describe: Callable       # (config, command-line options) -> echo string


KINDS = {
    "note-hmm": ModelKind(
        config=NoteHmmConfig,
        model=NoteHmmModel,
        count=lambda parts, config: note_hmm.count(parts, config),
        fit=lambda counts, config: note_hmm.fit(counts, config),
        decode_parts=_decode_note_parts,
        to_dict=_note_to_dict,
        from_dict=_note_from_dict,
        coefficients=_note_coefficients,
        set_coefficients=_note_set_coefficients,
        from_args=_note_from_args,
        describe=_note_describe,
    ),
    "chord-hmm": ModelKind(
        config=ChordHmmParams,
        model=ChordHmmModel,
        count=lambda parts, config: chord_hmm.count(parts, config),
        fit=lambda counts, config: chord_hmm.fit(counts, config),
        decode_parts=lambda model, parts: chord_hmm.decode_parts(model, parts),
        to_dict=_chord_to_dict,
        from_dict=_chord_from_dict,
        coefficients=_chord_coefficients,
        set_coefficients=lambda config, values: replace(config, **values),
        from_args=_chord_from_args,
        describe=_chord_describe,
    ),
}


def kind(name) -> ModelKind:
    """The ``KINDS`` entry of a kind name; ValueError for an unknown one."""
    if not isinstance(name, str) or name not in KINDS:
        raise ValueError(f"unknown model kind {name!r}; known kinds: {', '.join(KINDS)}")
    return KINDS[name]


def model_kind(obj) -> str:
    """Kind string of a trained model or of a model config."""
    for name, kind in KINDS.items():
        if type(obj) in (kind.model, kind.config):
            return name
    raise TypeError(f"not a model or model config: {type(obj).__name__}")


def dumps_model(model) -> str:
    """Serialise a trained model to deterministic JSON text, byte for byte
    what ``json.dumps(doc, sort_keys=True, indent=1)`` writes for it."""
    kind = model_kind(model)
    config, tables = KINDS[kind].to_dict(model)
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "config": config,
        "tables": tables,
    }
    out = []
    _render(doc, 0, out)
    return "".join(out)


def loads_model(text: str):
    """Parse a model file; the inverse of dumps_model.

    A foreign document raises ValueError; a model document with a missing
    key or a value of the wrong type, and a document nested too deeply for
    the JSON parser, raise MalformedModel.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise MalformedModel("model file is nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    if doc.get("version") != VERSION or type(doc["version"]) is not int:  # not 1.0 or true
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    name = doc.get("kind")
    entry = kind(name)
    try:
        _, _, _, config, tables = _keyed(doc, _DOCUMENT)
        return entry.from_dict(config, tables)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise MalformedModel(f"{name} model: {type(exc).__name__}: {exc}") from None


def load_model(path):
    return loads_model(Path(path).read_text(encoding="utf-8"))
