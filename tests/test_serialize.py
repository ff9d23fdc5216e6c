"""Deterministic text output: float cells, JSON writer, atomic files."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgap.serialize import csv_text, dumps_json, write_atomic


def float_cell(x):
    """The text csv_text writes for a single float cell."""
    return csv_text(["v"], [[x]]).splitlines()[1]


class TestFmtFloat:
    def test_round_trips_doubles(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 2.0**53, -math.pi):
            assert float(float_cell(x)) == x

    def test_specials(self):
        assert float_cell(float("nan")) == "NaN"
        assert float_cell(float("inf")) == "Infinity"
        assert float_cell(float("-inf")) == "-Infinity"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_property(self, x):
        assert float(float_cell(x)) == x


class TestDumpsJson:
    def test_structure_parses_back(self):
        obj = {
            "alpha": 1.5,
            "flags": [True, False, None],
            "nested": {"values": [1, 2.5, -0.125]},
            "empty_list": [],
            "empty_dict": {},
        }
        text = dumps_json(obj)
        assert json.loads(text) == obj
        assert text.endswith("\n")

    def test_deterministic(self):
        obj = {"b": 2.0, "a": [1.0, {"c": 3.0}]}
        assert dumps_json(obj) == dumps_json(obj)

    def test_string_escaping(self):
        for msg in ('a "quoted" \\ path', "line\nbreak\tand tab"):
            assert json.loads(dumps_json({"msg": msg}))["msg"] == msg

    def test_numpy_scalars(self):
        text = dumps_json({"v": np.float64(0.5), "n": np.int64(3)})
        assert json.loads(text) == {"v": 0.5, "n": 3}

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            dumps_json({"f": object()})


class TestCsvText:
    def test_layout_and_types(self):
        text = csv_text(["x", "ok", "k"], [[0.5, True, 3], [1.5, False, 4]])
        lines = text.splitlines()
        assert lines[0] == "x,ok,k"
        assert lines[1] == "0.5,true,3"
        assert lines[2] == "1.5,false,4"
        assert text.endswith("\n")

    def test_full_precision(self):
        text = csv_text(["v"], [[1.0 / 3.0]])
        assert float(text.splitlines()[1]) == 1.0 / 3.0


class TestWriteAtomic:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "sub" / "out.json"
        write_atomic(target, "one\n")
        assert target.read_text() == "one\n"
        write_atomic(target, "two\n")
        assert target.read_text() == "two\n"
        # no temp file left behind
        assert list(target.parent.iterdir()) == [target]
