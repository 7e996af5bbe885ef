"""Tests for trace serialisation (JSONL / CSV round-trips)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings

from repro.core import ValidationError
from repro.workloads import (
    dump_csv,
    dump_jsonl,
    load_csv,
    load_jsonl,
    load_trace,
    save_trace,
    uniform_random,
)

from conftest import items_strategy


class TestJsonl:
    def test_roundtrip(self, simple_items):
        assert load_jsonl(dump_jsonl(simple_items)) == simple_items

    def test_one_line_per_item(self, simple_items):
        text = dump_jsonl(simple_items)
        assert len([ln for ln in text.splitlines() if ln.strip()]) == len(simple_items)

    def test_blank_lines_tolerated(self, simple_items):
        text = dump_jsonl(simple_items).replace("\n", "\n\n")
        assert load_jsonl(text) == simple_items

    @settings(max_examples=25)
    @given(items_strategy())
    def test_roundtrip_random(self, items):
        assert load_jsonl(dump_jsonl(items)) == items


class TestCsv:
    def test_roundtrip(self, simple_items):
        assert load_csv(dump_csv(simple_items)) == simple_items

    def test_repr_precision_exact(self):
        # repr() round-trips floats exactly.
        items = uniform_random(25, seed=11)
        assert load_csv(dump_csv(items)) == items

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError):
            load_csv("a,b,c\n1,2,3\n")

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            load_csv("")


class TestFiles:
    def test_jsonl_file_roundtrip(self, tmp_path, simple_items):
        path = tmp_path / "trace.jsonl"
        save_trace(simple_items, path)
        assert load_trace(path) == simple_items

    def test_csv_file_roundtrip(self, tmp_path, simple_items):
        path = tmp_path / "trace.csv"
        save_trace(simple_items, path)
        assert load_trace(path) == simple_items

    def test_unknown_extension_rejected(self, tmp_path, simple_items):
        with pytest.raises(ValidationError):
            save_trace(simple_items, tmp_path / "trace.xml")
        with pytest.raises(ValidationError):
            load_trace(tmp_path / "trace.xml")


class TestColumnarLoaders:
    """The zero-copy loaders must be indistinguishable from the object path."""

    def _assert_same(self, a, b):
        assert a == b
        for x, y in zip(a, b):
            assert x.tags == y.tags

    def test_jsonl_scalar_roundtrip(self):
        from repro.workloads import load_jsonl_columnar

        items = uniform_random(60, seed=3)
        text = dump_jsonl(items)
        self._assert_same(load_jsonl_columnar(text), load_jsonl(text))
        self._assert_same(load_jsonl_columnar(text), items)

    def test_jsonl_vector_roundtrip(self):
        from repro.workloads import load_jsonl_columnar, vector_uniform

        items = vector_uniform(40, dims=3, seed=9)
        text = dump_jsonl(items)
        self._assert_same(load_jsonl_columnar(text), items)

    def test_jsonl_bytes_accepted(self):
        from repro.workloads import load_jsonl_columnar

        items = uniform_random(20, seed=4)
        text = dump_jsonl(items)
        self._assert_same(load_jsonl_columnar(text.encode("utf-8")), items)

    def test_csv_roundtrip(self):
        from repro.workloads import load_csv_columnar

        items = uniform_random(60, seed=6)
        text = dump_csv(items)
        self._assert_same(load_csv_columnar(text), load_csv(text))
        self._assert_same(load_csv_columnar(text), items)

    def test_csv_vector_roundtrip(self):
        from repro.workloads import load_csv_columnar, vector_uniform

        items = vector_uniform(30, dims=2, seed=7)
        text = dump_csv(items)
        self._assert_same(load_csv_columnar(text), items)

    def test_tagged_lines_fall_back(self):
        # Non-empty tags break the fixed-schema regex; the fallback object
        # loader must still parse them, tags included.
        from repro.core import Interval, Item, ItemList
        from repro.workloads import load_jsonl_columnar

        items = ItemList(
            [Item(0, 0.5, Interval(0.0, 1.0), tags={"tenant": "a"})]
        )
        text = dump_jsonl(items)
        got = load_jsonl_columnar(text)
        assert got == items
        assert got[0].tags == {"tenant": "a"}

    def test_reordered_keys_fall_back_not_misparse(self):
        # Same numbers, different key order: the fast path must refuse the
        # line (whole-buffer fallback), never swap fields positionally.
        from repro.workloads import load_jsonl_columnar

        line = '{"id": 0, "arrival": 3.0, "departure": 7.0, "size": 0.5, "tags": {}}\n'
        got = load_jsonl_columnar(line)
        assert got[0].arrival == 3.0 and got[0].departure == 7.0

    def test_fault_diagnostics_identical(self):
        # Strict mode: the columnar loader reports the same line/field fault
        # the object loader does (it re-reads the buffer through it).
        from repro.workloads import load_jsonl_columnar

        items = uniform_random(6, seed=8)
        lines = dump_jsonl(items).splitlines(keepends=True)
        lines[3] = '{"id": 93, "size": 0.5, "arrival": 4.0, "departure": 1.0, "tags": {}}\n'
        text = "".join(lines)
        with pytest.raises(ValidationError) as object_err:
            load_jsonl(text)
        with pytest.raises(ValidationError) as columnar_err:
            load_jsonl_columnar(text)
        assert str(object_err.value) == str(columnar_err.value)

    def test_fault_policy_counts_identical(self):
        from repro.resilience import FaultPolicy
        from repro.workloads import load_jsonl_columnar

        items = uniform_random(6, seed=8)
        lines = dump_jsonl(items).splitlines(keepends=True)
        lines[2] = "not json at all\n"
        text = "".join(lines)
        a_policy = FaultPolicy("skip")
        b_policy = FaultPolicy("skip")
        a = load_jsonl(text, policy=a_policy)
        b = load_jsonl_columnar(text, policy=b_policy)
        assert a == b
        assert a_policy.dropped == b_policy.dropped == 1


class TestLoadTraceLoaders:
    def test_loader_argument_validated(self, tmp_path, simple_items):
        path = tmp_path / "trace.jsonl"
        save_trace(simple_items, path)
        with pytest.raises(ValidationError, match="loader"):
            load_trace(path, loader="simd")

    def test_columnar_loader_both_formats(self, tmp_path, simple_items):
        for suffix in ("jsonl", "csv"):
            path = tmp_path / f"trace.{suffix}"
            save_trace(simple_items, path)
            assert load_trace(path, loader="columnar") == simple_items
            assert load_trace(path, loader="object") == simple_items

    def test_columnar_loader_empty_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        assert list(load_trace(path, loader="columnar")) == []

    def test_trace_loaders_tuple_exported(self):
        from repro.workloads import TRACE_LOADERS

        assert TRACE_LOADERS == ("object", "columnar")

    def test_batch_paths_never_import_numpy_ma(self, tmp_path):
        """Columnar loads and ``submit_many`` check ids without ``np.unique``.

        ``np.unique`` imports ``numpy.ma`` on first call, about half a
        megabyte of resident memory, so it runs in a fresh interpreter.
        """
        script = textwrap.dedent(
            """
            import sys
            from repro.core import ArrivalBatch
            from repro.engine import PackingSession
            from repro.workloads import load_trace, save_trace, uniform_random

            items = uniform_random(200, seed=3)
            for suffix in ("jsonl", "csv"):
                path = sys.argv[1] + "." + suffix
                save_trace(items, path)
                loaded = load_trace(path, loader="columnar")
                assert loaded == items
                session = PackingSession("first-fit")
                session.submit_many(ArrivalBatch.from_items(loaded))
                session.result().validate()
            assert "numpy.ma" not in sys.modules
            """
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "trace")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
