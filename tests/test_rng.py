"""Tests for the deterministic RNG utilities."""

from __future__ import annotations

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import rng
from repro.rng import derive_rng, derive_seed, mix64, uniform_unit

#: A library module body whose one call site derives one stream; ``label``
#: is the label expression, which may read the ``kind`` argument.
PLANTED = (
    "from repro.rng import derive_rng, derive_seed\n"
    "\n"
    "def draw(kind='collision'):\n"
    "    return {call}(7, {label})\n"
)


@pytest.mark.parametrize(
    "second_label",
    ["'planted/collision'", "f'planted/{kind}'"],
    ids=["literal", "fstring"],
)
def test_seed_label_recorder_flags_a_second_library_site(
    seed_label_recorder, monkeypatch, second_label
):
    """Two ``src/repro`` call sites deriving one ``(seed, label)`` fail the
    run, whether through ``derive_seed`` or ``derive_rng``, and whether the
    second site spells the label as a literal or as an f-string expanding
    to the first site's literal; one site deriving it twice does not."""
    monkeypatch.setattr(seed_label_recorder, "sites", {})
    home = os.path.dirname(rng.__file__)
    draws = []
    for name, call, label in (
        ("planted_a.py", "derive_seed", "'planted/collision'"),
        ("planted_b.py", "derive_rng", second_label),
    ):
        namespace = {}
        source = PLANTED.format(call=call, label=label)
        exec(compile(source, os.path.join(home, name), "exec"), namespace)
        draws.append(namespace["draw"])
    first, second = draws
    first()
    first()
    with pytest.raises(AssertionError, match="planted/collision"):
        second()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_label_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_64_bit_range(self):
        for label in ("a", "b", "c"):
            assert 0 <= derive_seed(123, label) < (1 << 64)

    def test_derive_rng_streams_independent(self):
        a = derive_rng(5, "alpha")
        b = derive_rng(5, "beta")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_derive_rng_reproducible(self):
        assert derive_rng(5, "s").random() == derive_rng(5, "s").random()


class TestSplitmix:
    def test_mix64_deterministic(self):
        assert mix64(12345) == mix64(12345)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_mix64_in_range(self, value):
        assert 0 <= mix64(value) < (1 << 64)

    def test_mix64_avalanche(self):
        # Flipping one input bit should flip many output bits.
        base = mix64(0x1234)
        flipped = mix64(0x1235)
        assert bin(base ^ flipped).count("1") > 16


class TestUniformUnit:
    def test_range(self):
        for block in range(200):
            value = uniform_unit(1, block)
            assert 0.0 <= value < 1.0

    def test_deterministic(self):
        assert uniform_unit(9, 1, 2) == uniform_unit(9, 1, 2)

    def test_component_sensitivity(self):
        assert uniform_unit(9, 1, 2) != uniform_unit(9, 2, 1)

    def test_roughly_uniform(self):
        values = [uniform_unit(3, i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        low = sum(1 for v in values if v < 0.1) / len(values)
        assert 0.05 < low < 0.15
