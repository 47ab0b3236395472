import json

import numpy as np
import pytest

from qdiv.entanglement import BipartiteState
from qdiv.io import (
    matrix_to_payload,
    parse_state_file,
    payload_to_matrix,
    write_state_file,
)
from qdiv.operators import DensityOperator, ValidationError, random_density


def test_payload_round_trip():
    mat = random_density(3, 3, 7).mat
    assert np.allclose(payload_to_matrix(matrix_to_payload(mat)), mat, atol=1e-15)


def test_state_file_round_trip(tmp_path):
    mat = random_density(4, 4, 9).mat
    path = tmp_path / "state.json"
    write_state_file(path, mat)
    loaded = parse_state_file(path)
    assert isinstance(loaded, DensityOperator)
    assert np.allclose(loaded.mat, mat, atol=1e-12)


def test_bipartite_round_trip(tmp_path):
    mat = random_density(6, 6, 11).mat
    path = tmp_path / "bipartite.json"
    write_state_file(path, mat, dims=(2, 3))
    loaded = parse_state_file(path)
    assert isinstance(loaded, BipartiteState)
    assert loaded.dims == (2, 3)
    assert np.allclose(loaded.state.mat, mat, atol=1e-12)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        parse_state_file(tmp_path / "absent.json")


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="malformed JSON"):
        parse_state_file(path)


def test_missing_keys_rejected():
    with pytest.raises(ValidationError, match="'dim' and 'entries'"):
        payload_to_matrix({"dim": 2})


def test_shape_mismatch_rejected():
    payload = {"dim": 2, "entries": [[[1.0, 0.0]]]}
    with pytest.raises(ValidationError, match="2x2"):
        payload_to_matrix(payload)


def test_bad_cell_rejected():
    payload = {"dim": 1, "entries": [[1.0]]}
    with pytest.raises(ValidationError, match=r"\[re, im\] pair"):
        payload_to_matrix(payload)


@pytest.mark.parametrize("cell", [["a", 0.0], [None, 0.0], [0.5, {}]])
def test_non_numeric_cell_rejected(cell):
    payload = {"dim": 1, "entries": [[cell]]}
    with pytest.raises(ValidationError, match=r"entry \(0,0\) is not a pair of numbers"):
        payload_to_matrix(payload)


@pytest.mark.parametrize("cell", [[float("nan"), 0.0], [0.5, float("inf")], [float("-inf"), 0.0]])
def test_non_finite_cell_rejected(tmp_path, cell):
    # a NaN off-diagonal pair used to load as a normalized state
    entries = [[[0.5, 0.0], cell], [cell, [0.5, 0.0]]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dim": 2, "entries": entries}))
    with pytest.raises(ValidationError, match=r"entry \(0,1\) is not finite"):
        parse_state_file(path)


def test_state_file_loads_complex128(tmp_path):
    path = tmp_path / "real.json"
    write_state_file(path, np.diag([0.75, 0.25]))
    assert parse_state_file(path).mat.dtype == np.complex128
    write_state_file(path, random_density(4, 4, 3).mat, dims=(2, 2))
    assert parse_state_file(path).state.mat.dtype == np.complex128


def test_non_hermitian_names_entry(tmp_path):
    path = tmp_path / "nonherm.json"
    payload = {"dim": 2, "entries": [[[0.5, 0.0], [0.3, 0.0]],
                                     [[0.0, 0.0], [0.5, 0.0]]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="not Hermitian"):
        parse_state_file(path)


def test_negative_eigenvalue_rejected(tmp_path):
    path = tmp_path / "neg.json"
    write_state_file(path, np.diag([1.05, -0.05]).astype(complex))
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        parse_state_file(path)


def test_small_negative_eigenvalue_rejected_by_file_check(tmp_path):
    path = tmp_path / "neg_small.json"
    write_state_file(path, np.diag([1.0 + 5e-9, -5e-9]).astype(complex))
    with pytest.raises(ValidationError, match="matrix has negative eigenvalue -5.0+e-09"):
        parse_state_file(path)


def test_small_trace_excess_rejected_by_file_check(tmp_path):
    path = tmp_path / "heavy_small.json"
    write_state_file(path, np.diag([1.0 + 5e-9, 0.0]).astype(complex))
    with pytest.raises(ValidationError, match=r"trace is 1\.000000005, exceeding 1"):
        parse_state_file(path)


def test_trace_above_one_rejected(tmp_path):
    path = tmp_path / "heavy.json"
    write_state_file(path, np.diag([0.9, 0.3]).astype(complex))
    with pytest.raises(ValidationError, match="exceeding 1"):
        parse_state_file(path)


def test_subnormalized_accepted(tmp_path):
    path = tmp_path / "sub.json"
    write_state_file(path, np.diag([0.5, 0.2]).astype(complex))
    loaded = parse_state_file(path)
    assert loaded.trace == pytest.approx(0.7)
