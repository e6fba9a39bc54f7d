import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdsim.features import ExtractionParams
from crowdsim.io import (Checkpoint, RunManifest, canonical_json, derive_seed,
                         load_checkpoint, read_csv, save_checkpoint, substream,
                         write_csv, write_json)
from crowdsim.network import NetworkConfig, TrainingConfig, VelocityPredictor


def _manifest(**over):
    base = dict(command="train", scene="corridor", data=("a.json",), seed=7,
                out="out")
    base.update(over)
    return RunManifest(**base)


def test_manifest_hash_stable_and_sensitive():
    assert _manifest().hash() == _manifest().hash()
    assert _manifest().hash() != _manifest(seed=8).hash()
    assert _manifest().hash() != _manifest(warnings=["fps differs"]).hash()


def test_manifest_save_roundtrip(tmp_path):
    m = _manifest(warnings=["w1"])
    m.save(tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["manifest_hash"] == m.hash()
    assert doc["warnings"] == ["w1"]
    assert doc["command"] == "train"


def test_manifest_file_is_written_by_write_json(tmp_path):
    m = _manifest(warnings=["w1"], options={"b": 1, "a": [0.5, None]})
    m.save(tmp_path / "manifest.json")
    write_json(tmp_path / "doc.json", m.to_dict(), m.hash())
    assert (tmp_path / "manifest.json").read_bytes() == (tmp_path / "doc.json").read_bytes()


def test_derive_seed_deterministic_and_name_dependent():
    assert derive_seed(7, "split") == derive_seed(7, "split")
    assert derive_seed(7, "split") != derive_seed(7, "init")
    assert derive_seed(7, "split") != derive_seed(8, "split")


def test_substreams_independent():
    a = substream(3, "x").normal(size=100)
    b = substream(3, "y").normal(size=100)
    a2 = substream(3, "x").normal(size=100)
    np.testing.assert_array_equal(a, a2)
    assert not np.allclose(a, b)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    params = ExtractionParams(ray_deg=45.0)
    cfg = NetworkConfig(input_dim=params.feature_dim, tcn_channels=(4, 4),
                        dilations=(1, 2), kernel_size=3, dropout_rate=0.0)
    net = VelocityPredictor(cfg, np.random.default_rng(5))
    state = net.state_dict()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, state, cfg, params, "abc123",
                    training=TrainingConfig(iterations=10))
    ckpt = load_checkpoint(path)
    assert isinstance(ckpt, Checkpoint)
    assert ckpt.network == cfg
    assert ckpt.extraction == params
    assert ckpt.manifest_hash == "abc123"
    assert ckpt.training.iterations == 10
    assert set(ckpt.state) == set(state)
    for name in state:
        np.testing.assert_array_equal(ckpt.state[name], state[name])
        assert ckpt.state[name].dtype == np.float64


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="crowdsim-checkpoint-v1"):
        load_checkpoint(path)
    # a missing key or truncated tensor data is an error that names the file
    params = ExtractionParams(ray_deg=45.0)
    cfg = NetworkConfig(input_dim=params.feature_dim, tcn_channels=(4,), dilations=(1,),
                        kernel_size=3, dropout_rate=0.0)
    save_checkpoint(path, VelocityPredictor(cfg, np.random.default_rng(5)).state_dict(),
                    cfg, params, "h")
    good = json.loads(path.read_text())
    for key in ("tensors", "manifest_hash", "network"):
        bad = dict(good)
        del bad[key]
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed checkpoint ('{key}')")):
            load_checkpoint(path)
    bad = json.loads(json.dumps(good))
    name = sorted(bad["tensors"])[0]
    bad["tensors"][name]["data"] = bad["tensors"][name]["data"][:-4]
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed tensor '{name}' ")):
        load_checkpoint(path)


def test_checkpoint_rejects_inconsistent_dims(tmp_path):
    params = ExtractionParams(ray_deg=45.0)
    cfg = NetworkConfig(input_dim=params.feature_dim + 2, tcn_channels=(4,),
                        dilations=(1,), kernel_size=3, dropout_rate=0.0)
    net = VelocityPredictor(cfg, np.random.default_rng(5))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, net.state_dict(), cfg, params, "h")
    with pytest.raises(ValueError, match="input_dim"):
        load_checkpoint(path)
    # a network window that is not the stored extraction's fails at load,
    # not later inside forward
    cfg = NetworkConfig(input_dim=params.feature_dim, window=params.window + 2,
                        tcn_channels=(4,), dilations=(1,), kernel_size=3, dropout_rate=0.0)
    save_checkpoint(path, VelocityPredictor(cfg, np.random.default_rng(5)).state_dict(),
                    cfg, params, "h")
    with pytest.raises(ValueError, match=re.escape(f"{path}: network window 10 does not match "
                                                   "the stored extraction window 8")):
        load_checkpoint(path)


def test_write_csv_embeds_hash_and_roundtrips(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["a", 1, 0.5], ["b", 2, 0.25]]
    write_csv(path, ["name", "k", "v"], rows, "deadbeef", trailer=["spread=1.0"])
    text = path.read_text()
    assert text.startswith("# manifest_hash=deadbeef\n")
    assert text.rstrip().endswith("# spread=1.0")
    header, parsed = read_csv(path)
    assert header == ["name", "k", "v"]
    assert parsed == [["a", "1", "0.5"], ["b", "2", "0.25"]]


def test_write_csv_float_repr_roundtrips(tmp_path):
    path = tmp_path / "f.csv"
    values = [0.1, 1 / 3, 1e-17, 123456.789]
    write_csv(path, ["v"], [[v] for v in values], "h")
    _, rows = read_csv(path)
    assert [float(r[0]) for r in rows] == values


def _fmt_oracle(value) -> str:
    """One CSV cell, formatted on its own: the reference for write_csv."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv_oracle(header, rows, manifest_hash) -> str:
    lines = [f"# manifest_hash={manifest_hash}", ",".join(header)]
    lines += [",".join(_fmt_oracle(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                   1e16, 1e-5, 0.1, -123456.789]
_CELLS = st.one_of(
    st.text(alphabet="abcxyz_-.0123456789", max_size=6),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from(_SPECIAL_FLOATS),
    st.sampled_from(_SPECIAL_FLOATS).map(np.float64),
    st.none(),
)


def test_write_csv_matches_per_cell_oracle(tmp_path):
    cells = ["s", True, False, 7, np.int64(-3)] + _SPECIAL_FLOATS + [
        np.float64(v) for v in _SPECIAL_FLOATS] + [None]
    rows = [cells,
            [float(v) for v in _SPECIAL_FLOATS],          # plain types only
            ["run", "p1", 3, 0.1875, 1.25, -0.0, "m1", 1],
            ["run", "p1", 3, np.float64(0.1875), True, np.int64(1), "m1", False],
            []]
    path = tmp_path / "o.csv"
    write_csv(path, ["a", "b"], rows, "h")
    assert path.read_text() == _csv_oracle(["a", "b"], rows, "h")
    # numpy 2 reprs a float64 as "np.float64(...)"; cells keep the plain text.
    assert _fmt_oracle(np.float64(0.5)) == "0.5"
    assert "np." not in path.read_text()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, max_size=8), max_size=6))
def test_write_csv_matches_per_cell_oracle_on_random_rows(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "r.csv"
    write_csv(path, ["h"], rows, "x")
    assert path.read_bytes() == _csv_oracle(["h"], rows, "x").encode()


def test_write_json_embeds_hash(tmp_path):
    path = tmp_path / "d.json"
    write_json(path, {"x": 1}, "cafe")
    doc = json.loads(path.read_text())
    assert doc == {"x": 1, "manifest_hash": "cafe"}


def test_canonical_json_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}'
