"""File formats: model/policy/simulation JSON readers and artifact writers.

JSON layouts (row-major nesting):

  model:  {"cards": {"x","y","z","v1","v2"},
           "state_pmf": [v1][v2],
           "main_kernel": [x][v1][y],
           "wiretap_kernel": [x][v2][z]}
  policy: {"u_card": int, "table": [v1][v2][u][x]}
  sim:    {"model": {...} | "model_file": path,
           "policy": {...} | "policy_file": path,
           "n", "rate", "epsilon_typ", "trials", "seed"}

Relative *_file paths resolve against the config file's directory.  All
writers are atomic (temp file + rename) and emit LF line endings; floats are
formatted with %.12g so identical inputs give identical bytes.  CSV files are
written in blocks of BLOCK_ROWS rows, each block one %-format of its cells.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import tempfile
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import UsageError, ValidationError

if TYPE_CHECKING:
    from .discrete import AuxiliaryPolicy, DiscreteWiretapModel, RegionPointSet
    from .simulator import SimConfig

FLOAT_FMT = "%.12g"
BLOCK_ROWS = 1_024         # rows per CSV write; discrete lays out its region in the same blocks


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested past the decoder's depth, or an integer past
        # Python's digit limit
        raise UsageError(f"{path}: not readable as JSON: {exc}") from exc


def is_kind(value: Any, kind: type) -> bool:
    """Whether a JSON value is of kind int, float, str or bool: an int is a
    number and will do for a float, a bool is neither."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _object(doc: Any, where: str) -> dict:
    if not isinstance(doc, dict):
        raise UsageError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _field(doc: dict, key: str, where: str) -> Any:
    if key not in _object(doc, where):
        raise UsageError(f"{where}: missing field {key!r}")
    return doc[key]


def _int_field(doc: dict, key: str, where: str, minimum: int = 1) -> int:
    value = _field(doc, key, where)
    if not is_kind(value, int) or value < minimum:
        raise UsageError(f"{where}.{key}: expected an integer >= {minimum}, got {value!r}")
    return value


def _num_field(doc: dict, key: str, where: str) -> float:
    value = _field(doc, key, where)
    if not is_kind(value, float):
        raise UsageError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _array_field(doc: dict, key: str, where: str, shape: tuple[int, ...]) -> np.ndarray:
    value = _field(doc, key, where)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where}.{key}: not a rectangular numeric array ({exc})") from exc
    if arr.shape != shape:
        raise UsageError(f"{where}.{key}: expected shape {shape}, got {arr.shape}")
    return arr


def model_from_dict(doc: dict, where: str = "model") -> DiscreteWiretapModel:
    # imported here, as in every loader: the writers need neither layer
    from .discrete import DiscreteWiretapModel
    from .probability import JointPmf, TransitionKernel

    cards = _field(doc, "cards", where)
    card = {name: _int_field(cards, name, f"{where}.cards")
            for name in ("x", "y", "z", "v1", "v2")}
    state = _array_field(doc, "state_pmf", where, (card["v1"], card["v2"]))
    main = _array_field(doc, "main_kernel", where, (card["x"], card["v1"], card["y"]))
    tap = _array_field(doc, "wiretap_kernel", where, (card["x"], card["v2"], card["z"]))
    try:
        return DiscreteWiretapModel(
            state_pmf=JointPmf((("v1", card["v1"]), ("v2", card["v2"])), state),
            main_kernel=TransitionKernel(
                (("x", card["x"]), ("v1", card["v1"])), (("y", card["y"]),), main),
            wiretap_kernel=TransitionKernel(
                (("x", card["x"]), ("v2", card["v2"])), (("z", card["z"]),), tap),
        )
    except ValidationError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def policy_from_dict(doc: dict, model: DiscreteWiretapModel,
                     where: str = "policy") -> AuxiliaryPolicy:
    from .discrete import AuxiliaryPolicy
    from .probability import TransitionKernel

    u_card = _int_field(doc, "u_card", where)
    table = _array_field(doc, "table", where,
                         (model.card_v1, model.card_v2, u_card, model.card_x))
    try:
        kernel = TransitionKernel(
            (("v1", model.card_v1), ("v2", model.card_v2)),
            (("u", u_card), ("x", model.card_x)), table)
        return AuxiliaryPolicy(u_card, kernel)
    except ValidationError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def model_to_dict(model: DiscreteWiretapModel) -> dict:
    return {
        "cards": {"x": model.card_x, "y": model.card_y, "z": model.card_z,
                  "v1": model.card_v1, "v2": model.card_v2},
        "state_pmf": model.state_pmf.table.tolist(),
        "main_kernel": model.main_kernel.table.tolist(),
        "wiretap_kernel": model.wiretap_kernel.table.tolist(),
    }


def policy_to_dict(policy: AuxiliaryPolicy) -> dict:
    return {"u_card": policy.u_card, "table": policy.table.table.tolist()}


def load_model(path: str) -> DiscreteWiretapModel:
    return model_from_dict(load_json(path), where=path)


def load_sim_config(path: str) -> SimConfig:
    from .simulator import SimConfig

    doc = _object(load_json(path), path)
    where = path
    base = os.path.dirname(os.path.abspath(path))

    def resolve(key: str):
        if key in doc and f"{key}_file" in doc:
            raise UsageError(f"{where}: give {key} inline or as {key}_file, not both")
        if f"{key}_file" in doc:
            ref = doc[f"{key}_file"]
            if not isinstance(ref, str):
                raise UsageError(f"{where}.{key}_file: expected a path string")
            return load_json(os.path.join(base, ref)), os.path.join(base, ref)
        return _field(doc, key, where), f"{where}.{key}"

    model_doc, model_where = resolve("model")
    model = model_from_dict(model_doc, where=model_where)
    policy_doc, policy_where = resolve("policy")
    policy = policy_from_dict(policy_doc, model, where=policy_where)
    return SimConfig(
        model=model,
        policy=policy,
        n=_int_field(doc, "n", where),
        rate=_num_field(doc, "rate", where),
        epsilon_typ=_num_field(doc, "epsilon_typ", where),
        trials=_int_field(doc, "trials", where),
        seed=_int_field(doc, "seed", where, minimum=0),
    )


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator:
    """A text file that replaces path when the block exits cleanly."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def _write_blocks(path: str, header: Sequence[str], formats: Sequence[str],
                  blocks: Iterable[Iterable[Sequence]]) -> None:
    """The one CSV writer: the header, then each block of rows as one
    %-format, formats[i] for column i."""
    line = ",".join(formats) + "\n"
    with _atomic_file(path) as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            cells = tuple(itertools.chain.from_iterable(block))
            fh.write(line * (len(cells) // len(formats)) % cells)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence] = (), *,
              columns: Optional[Sequence[np.ndarray]] = None) -> None:
    """Rows under header, or the rows of equal-length numpy columns taken
    BLOCK_ROWS at a time, through the one block writer: a column whose
    first cell is a float takes FLOAT_FMT, any other column %s."""
    if columns is None:
        rows = iter(rows)
        blocks = iter(lambda: list(itertools.islice(rows, BLOCK_ROWS)), [])
    else:
        blocks = (list(zip(*(c[start:start + BLOCK_ROWS].tolist() for c in columns)))
                  for start in range(0, len(columns[0]), BLOCK_ROWS))
    first = next(blocks, [])
    formats = ([FLOAT_FMT if isinstance(cell, float) else "%s" for cell in first[0]]
               if first else ["%s"] * len(header))
    _write_blocks(path, header, formats, itertools.chain([first], blocks))


def write_json(path: str, obj: Any) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_region_csv(path: str, region: RegionPointSet) -> None:
    """region.csv from the region's columns."""
    write_csv(path, ("R", "d", "policy_id"), columns=(region.r, region.d, region.policy_id))


def dump_codebook_text(path: str, codebook, rate: float) -> None:
    """One codeword per line: bin, subbin, then the N symbols."""
    lines = [
        f"# seed {codebook.seed}",
        f"# rate {FLOAT_FMT % rate}",
        f"# bins {codebook.bin_count} subbins_per_bin {codebook.subbins_per_bin}",
        f"# codewords {codebook.sequences.shape[0]} n {codebook.sequences.shape[1]}",
    ]
    for k in range(codebook.sequences.shape[0]):
        symbols = " ".join(str(int(s)) for s in codebook.sequences[k])
        lines.append(f"{codebook.bin_index[k]} {codebook.subbin_index[k]} {symbols}")
    atomic_write_text(path, "\n".join(lines) + "\n")
