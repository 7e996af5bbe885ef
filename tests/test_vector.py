"""First-class vector packing: degeneracy, streaming, registry, traces.

The guarantees under test:

* **degeneracy** — every vector packer at ``d=1`` produces the placements of
  its scalar counterpart (agreement with the reference oracle at d = 1..3 is
  ``tests/test_first_fit_core.py``);
* **registry** — ``dims`` validation in :func:`repro.algorithms.get_packer`
  raises the uniform :class:`~repro.core.RegistryError` shape;
* **traces** — ``sizes`` round-trips exactly through JSONL and CSV, and
  loader faults name the offending coordinate and 1-based line.
"""

from __future__ import annotations

import pytest
from conftest import items_strategy
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import available_packers, get_packer
from repro.core import (
    EventKind,
    Interval,
    Item,
    ItemList,
    RegistryError,
    ValidationError,
    event_stream,
)
from repro.engine import PackingSession
from repro.workloads import (
    dump_csv,
    dump_jsonl,
    load_csv,
    load_jsonl,
    uniform_random,
    vector_uniform,
)

#: (vector packer, scalar counterpart, shared constructor params).
COUNTERPARTS = [
    ("vector-first-fit", "first-fit", {}),
    ("vector-classify-duration", "classify-duration", {"alpha": 2.0}),
    ("vector-classify-departure", "classify-departure", {"rho": 2.5}),
]


@st.composite
def vector_items_strategy(draw, max_items: int = 10, dims: int = 3):
    """An :class:`ItemList` of random ``dims``-dimensional items."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    coord = st.floats(min_value=0.01, max_value=1.0, allow_nan=False, allow_infinity=False)
    items = []
    for i in range(n):
        a = draw(st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
        d = draw(st.floats(min_value=0.05, max_value=10.0, allow_nan=False))
        sizes = tuple(draw(coord) for _ in range(dims))
        items.append(Item(i, sizes, Interval(a, a + d)))
    return ItemList(items)


class TestScalarDegeneracy:
    """Vector packers at d=1 are their scalar counterparts, bit for bit."""

    @pytest.mark.parametrize("vec_name,scalar_name,params", COUNTERPARTS)
    @settings(max_examples=40, deadline=None)
    @given(items=items_strategy(max_items=12))
    def test_property(self, vec_name, scalar_name, params, items):
        scalar = get_packer(scalar_name, **params).pack(items)
        vector = get_packer(vec_name, **params).pack(items)
        assert vector.assignment == scalar.assignment

    def test_vector_uniform_dims1_equals_uniform_random(self):
        a = uniform_random(50, seed=11)
        b = vector_uniform(50, dims=1, seed=11)
        assert [(r.id, r.sizes, r.arrival, r.departure) for r in a] == [
            (r.id, r.sizes, r.arrival, r.departure) for r in b
        ]


class TestStreaming:
    """Vector items through PackingSession, per item or in arrival runs."""

    @pytest.mark.parametrize("batched", [False, True])
    def test_streaming_matches_batch(self, batched):
        items = vector_uniform(120, dims=3, seed=5)
        session = PackingSession("vector-first-fit")
        pending = []
        for event in event_stream(items):
            if event.kind is EventKind.ARRIVAL:
                if batched:
                    pending.append(event.item)
                else:
                    session.submit(event.item)
            else:
                if pending:
                    session.submit_many(pending)
                    pending = []
                session.advance(event.time)
        if pending:
            session.submit_many(pending)
        result = session.result()
        result.validate()
        assert result.assignment == get_packer("vector-first-fit").pack(items).assignment
        assert session.stats.items_submitted == session.stats.departures_processed == 120


class TestRegistryDims:
    """Uniform RegistryError shape for every dims failure path."""

    def test_scalar_packer_rejects_vector_dims(self):
        with pytest.raises(RegistryError, match=r"packer 'first-fit': does not support 3"):
            get_packer("first-fit", dims=3)

    def test_vector_packer_accepts_any_dims(self):
        packer = get_packer("vector-first-fit", dims=7)
        assert packer.dims == 7  # forwarded, not just validated

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "3"])
    def test_bad_dims_values_rejected(self, bad):
        with pytest.raises(RegistryError, match="dims must be a positive integer"):
            get_packer("vector-first-fit", dims=bad)

    def test_registry_error_is_validation_and_value_error(self):
        with pytest.raises(ValidationError):
            get_packer("first-fit", dims=2)
        with pytest.raises(ValueError):
            get_packer("first-fit", dims=2)

    def test_every_scalar_packer_declares_dims_one(self):
        from repro.algorithms import packer_info

        for name in available_packers():
            info = packer_info(name)
            if name.startswith("vector-"):
                assert info.dims is None
            else:
                assert info.supports_dims(1)

    def test_mismatched_item_dims_at_place_time(self):
        packer = get_packer("vector-first-fit", dims=2)
        item = Item(0, (0.2, 0.3, 0.4), Interval(0.0, 1.0))
        with pytest.raises(ValidationError, match="3 dimension"):
            packer.pack(ItemList([item]))


class TestVectorTraces:
    """sizes round-trips and coordinate-precise loader faults."""

    @settings(max_examples=30, deadline=None)
    @given(items=vector_items_strategy(max_items=8, dims=3))
    def test_jsonl_roundtrip(self, items):
        loaded = load_jsonl(dump_jsonl(items))
        assert [(r.id, r.sizes, r.arrival, r.departure) for r in items] == [
            (r.id, r.sizes, r.arrival, r.departure) for r in loaded
        ]

    @settings(max_examples=30, deadline=None)
    @given(items=vector_items_strategy(max_items=8, dims=3))
    def test_csv_roundtrip(self, items):
        loaded = load_csv(dump_csv(items))
        assert [(r.id, r.sizes, r.arrival, r.departure) for r in items] == [
            (r.id, r.sizes, r.arrival, r.departure) for r in loaded
        ]

    def test_bad_coordinate_names_index_and_line(self):
        text = (
            '{"id": 0, "sizes": [0.2, 0.3], "arrival": 0, "departure": 1}\n'
            '{"id": 1, "sizes": [0.2, 0.3, "x"], "arrival": 0, "departure": 1}\n'
        )
        with pytest.raises(ValidationError, match=r"trace line 2: non-numeric sizes\[2\]"):
            load_jsonl(text)

    def test_out_of_range_coordinate_named(self):
        text = '{"id": 0, "sizes": [0.2, -0.1], "arrival": 0, "departure": 1}\n'
        with pytest.raises(ValidationError, match=r"sizes\[1\]"):
            load_jsonl(text)

    def test_both_spellings_rejected(self):
        text = '{"id": 0, "size": 0.2, "sizes": [0.2], "arrival": 0, "departure": 1}\n'
        with pytest.raises(ValidationError, match="both 'size' and 'sizes'"):
            load_jsonl(text)

    def test_vector_csv_header(self):
        items = vector_uniform(3, dims=3, seed=1)
        header = dump_csv(items).splitlines()[0]
        assert header == "id,size_0,size_1,size_2,arrival,departure"

    def test_scalar_dump_keeps_legacy_spelling(self):
        items = uniform_random(3, seed=1)
        assert '"size":' in dump_jsonl(items).splitlines()[0]
        assert dump_csv(items).splitlines()[0] == "id,size,arrival,departure"
