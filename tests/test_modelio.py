import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretapsi import SimConfig, UsageError, build_codebook
from wiretapsi.modelio import (
    BLOCK_ROWS,
    FLOAT_FMT,
    atomic_write_text,
    dump_codebook_text,
    load_json,
    load_model,
    load_sim_config,
    model_from_dict,
    model_to_dict,
    policy_from_dict,
    policy_to_dict,
    write_csv,
    write_json,
)
from wiretapsi.reference import degraded_bsc_pair, uniform_input_policy

from discrete_reference import reference_csv


@pytest.fixture()
def model():
    return degraded_bsc_pair(0.05, 0.2)


@pytest.fixture()
def policy(model):
    return uniform_input_policy(model)


def test_model_round_trip(model):
    doc = model_to_dict(model)
    back = model_from_dict(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(back.state_pmf.table, model.state_pmf.table)
    np.testing.assert_array_equal(back.main_kernel.table, model.main_kernel.table)
    np.testing.assert_array_equal(back.wiretap_kernel.table,
                                  model.wiretap_kernel.table)


def test_policy_round_trip(model, policy):
    doc = policy_to_dict(policy)
    back = policy_from_dict(json.loads(json.dumps(doc)), model)
    assert back.u_card == policy.u_card
    np.testing.assert_array_equal(back.table.table, policy.table.table)


def test_load_json_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cards": \n  oops}')
    with pytest.raises(UsageError, match=r"line 2 column 3"):
        load_json(str(bad))


def test_load_json_missing_file(tmp_path):
    with pytest.raises(UsageError, match="nope.json"):
        load_json(str(tmp_path / "nope.json"))


def test_model_from_dict_diagnostics(model):
    doc = model_to_dict(model)

    broken = dict(doc)
    del broken["cards"]
    with pytest.raises(UsageError, match=r"model: missing field 'cards'"):
        model_from_dict(broken)

    broken = json.loads(json.dumps(doc))
    broken["cards"]["x"] = 0
    with pytest.raises(UsageError, match=r"model\.cards\.x: expected an integer >= 1"):
        model_from_dict(broken)

    broken = json.loads(json.dumps(doc))
    broken["state_pmf"] = [[0.5, 0.5]]
    with pytest.raises(UsageError, match=r"model\.state_pmf: expected shape"):
        model_from_dict(broken)

    broken = json.loads(json.dumps(doc))
    broken["main_kernel"][0][0][0] += 0.25   # row no longer sums to 1
    with pytest.raises(UsageError, match=r"^model: "):
        model_from_dict(broken)

    with pytest.raises(UsageError, match="expected a JSON object"):
        model_from_dict([1, 2, 3])


def test_policy_from_dict_diagnostics(model, policy):
    doc = policy_to_dict(policy)
    broken = json.loads(json.dumps(doc))
    broken["table"] = broken["table"][0]
    with pytest.raises(UsageError, match=r"policy\.table: expected shape"):
        policy_from_dict(broken, model)


def test_ragged_array_rejected(model):
    doc = model_to_dict(model)
    doc["state_pmf"] = [[0.5, 0.5], [0.25]]
    with pytest.raises(UsageError, match=r"model\.state_pmf"):
        model_from_dict(doc)


def test_load_model_and_policy_use_path_in_messages(tmp_path, model):
    path = tmp_path / "model.json"
    doc = model_to_dict(model)
    del doc["state_pmf"]
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="model.json: missing field"):
        load_model(str(path))


def _write_sim_files(tmp_path, model, policy, overrides=None):
    (tmp_path / "model.json").write_text(json.dumps(model_to_dict(model)))
    (tmp_path / "policy.json").write_text(json.dumps(policy_to_dict(policy)))
    doc = {"model_file": "model.json", "policy_file": "policy.json",
           "n": 4, "rate": 0.3, "epsilon_typ": 0.25, "trials": 5, "seed": 7}
    doc.update(overrides or {})
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(doc))
    return cfg


def test_load_sim_config_relative_paths(tmp_path, model, policy, monkeypatch):
    cfg = _write_sim_files(tmp_path, model, policy)
    monkeypatch.chdir("/")   # must resolve against the config dir, not cwd
    loaded = load_sim_config(str(cfg))
    assert loaded.n == 4 and loaded.trials == 5 and loaded.seed == 7
    assert loaded.rate == pytest.approx(0.3)
    np.testing.assert_array_equal(loaded.model.state_pmf.table,
                                  model.state_pmf.table)


def test_load_sim_config_inline_documents(tmp_path, model, policy):
    doc = {"model": model_to_dict(model), "policy": policy_to_dict(policy),
           "n": 3, "rate": 0.4, "epsilon_typ": 0.3, "trials": 2, "seed": 0}
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(doc))
    loaded = load_sim_config(str(cfg))
    assert isinstance(loaded, SimConfig)
    assert loaded.policy.u_card == policy.u_card


def test_load_sim_config_rejects_double_model(tmp_path, model, policy):
    cfg = _write_sim_files(tmp_path, model, policy,
                           {"model": model_to_dict(model)})
    with pytest.raises(UsageError, match="inline or as model_file, not both"):
        load_sim_config(str(cfg))


def test_load_sim_config_field_types(tmp_path, model, policy):
    cfg = _write_sim_files(tmp_path, model, policy, {"n": 2.5})
    with pytest.raises(UsageError, match=r"\.n: expected an integer"):
        load_sim_config(str(cfg))
    cfg = _write_sim_files(tmp_path, model, policy, {"rate": True})
    with pytest.raises(UsageError, match=r"\.rate: expected a number"):
        load_sim_config(str(cfg))
    cfg = _write_sim_files(tmp_path, model, policy, {"seed": -1})
    with pytest.raises(UsageError, match=r"\.seed: expected an integer >= 0"):
        load_sim_config(str(cfg))
    cfg = _write_sim_files(tmp_path, model, policy, {"model_file": 17})
    with pytest.raises(UsageError, match=r"\.model_file: expected a path string"):
        load_sim_config(str(cfg))


def test_atomic_write_lf_only_and_no_leftovers(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "a\nb\n")
    assert target.read_bytes() == b"a\nb\n"
    atomic_write_text(str(target), "c\n")
    assert target.read_bytes() == b"c\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b", "c"), [(1, 1.0 / 3.0, "x"), (2, 0.1, "y")])
    lines = path.read_text().splitlines()
    assert lines == ["a,b,c", "1,0.333333333333,x", "2,0.1,y"]


def test_write_csv_deterministic_bytes(tmp_path):
    rows = [(k, k * 0.1, f"p{k}") for k in range(20)]
    p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
    write_csv(str(p1), ("i", "v", "s"), rows)
    write_csv(str(p2), ("i", "v", "s"), rows)
    assert p1.read_bytes() == p2.read_bytes()


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e-300, 1.0 / 3.0, 0.1, -2.5e-7,
                  123456789012.5, 1234567890123.0, 1e16, 1.7976931348623157e308)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_float_format_is_format_12g(x):
    assert FLOAT_FMT % x == format(x, ".12g")


def test_write_csv_equals_the_per_cell_reference(tmp_path):
    # more than one block, special floats in float columns, ints and
    # strings in the others; rows given as a list and as a generator
    rows = [(k, x, -x, f"s{k}", float(k)) for k, x in
            enumerate(SPECIAL_FLOATS * (BLOCK_ROWS // len(SPECIAL_FLOATS) + 2))]
    assert len(rows) > BLOCK_ROWS
    header = ("i", "x", "minus_x", "s", "k")
    reference_csv(str(tmp_path / "ref.csv"), header, rows)
    write_csv(str(tmp_path / "list.csv"), header, rows)
    write_csv(str(tmp_path / "gen.csv"), header, (row for row in rows))
    want = (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "list.csv").read_bytes() == want
    assert (tmp_path / "gen.csv").read_bytes() == want
    write_csv(str(tmp_path / "empty.csv"), header, [])
    assert (tmp_path / "empty.csv").read_bytes() == b"i,x,minus_x,s,k\n"


def test_write_json_stable_layout(tmp_path):
    path = tmp_path / "o.json"
    write_json(str(path), {"b": 1, "a": [1.5, 2]})
    text = path.read_text()
    assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'


def test_dump_codebook_text(tmp_path, model, policy):
    config = SimConfig(model=model, policy=policy, n=4, rate=0.3,
                       epsilon_typ=0.25, trials=1, seed=11)
    book = build_codebook(config)
    path = tmp_path / "book.txt"
    dump_codebook_text(str(path), book, config.rate)
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed 11"
    assert lines[1] == "# rate 0.3"
    assert lines[2].startswith("# bins ")
    assert lines[3] == f"# codewords {book.sequences.shape[0]} n 4"
    assert len(lines) == 4 + book.sequences.shape[0]
    first = lines[4].split()
    assert len(first) == 2 + config.n
    assert int(first[0]) == book.bin_index[0]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000], ids=oct)
def test_artifacts_take_the_mode_open_gives_a_new_file(tmp_path, model, policy, umask):
    # each writer's file is 0o666 less the umask, as from open(), not the
    # 0o600 of a temp file; the umask is the process's, so it is restored
    old = os.umask(umask)
    try:
        (tmp_path / "plain.txt").write_text("")
        atomic_write_text(str(tmp_path / "a.txt"), "x\n")
        write_json(str(tmp_path / "b.json"), {"k": 1})
        write_csv(str(tmp_path / "c.csv"), ("a", "b"), [(1.0, 2)])
        config = SimConfig(model=model, policy=policy, n=4, rate=0.3, epsilon_typ=0.25,
                           trials=1, seed=1)
        dump_codebook_text(str(tmp_path / "d.txt"), build_codebook(config), config.rate)
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(("plain.txt", "a.txt", "b.json", "c.csv", "d.txt"),
                                  0o666 & ~umask)
