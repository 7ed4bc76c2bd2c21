"""The verdict that `scripts/bench.py` gives each metric of a comparison."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def summary(base, head, better="lower", won=None):
    """The script's summary of one metric over alternating pairs of
    (base, head) values; ``won`` overrides the count of pairs won."""
    sign = 1.0 if better == "lower" else -1.0
    return {"better": better, "base": bench._spread(base), "head": bench._spread(head),
            "pairs_won": sum(sign * (h - b) < 0.0 for b, h in zip(base, head))
            if won is None else won, "pairs": len(base)}


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


class TestVerdict:
    def test_clear_gain(self):
        head = [0.55, 0.57, 0.53, 0.56, 0.54, 0.58, 0.52, 0.55, 0.57, 0.53]
        assert bench.verdict(summary(BASE, head), 0.25) == "gain"

    def test_gain_needs_nine_pairs_in_ten(self):
        head = [0.55, 0.57, 0.53, 0.56, 0.54, 0.58, 0.52, 0.55, 0.57, 0.53]
        assert bench.verdict(summary(BASE, head, won=8), 0.25) == "unresolved"
        assert bench.verdict(summary(BASE, head, won=9), 0.25) == "gain"

    def test_gain_needs_medians_apart_by_more_than_the_base_spread(self):
        # Every pair won, but by less than the base's quartile spread.
        head = [b - 0.005 for b in BASE]
        assert bench.verdict(summary(BASE, head), 0.25) == "unresolved"

    def test_worse_beyond_the_relative_bound(self):
        head = [1.3 * b for b in BASE]
        assert bench.verdict(summary(BASE, head), 0.25) == "worse"
        head = [1.2 * b for b in BASE]
        assert bench.verdict(summary(BASE, head), 0.25) == "unresolved"

    @pytest.mark.parametrize("head,expected", [
        ([1.0] * 10, "unresolved"),
        ([0.98] * 10, "worse"),
        ([1.1] * 10, "gain"),
    ])
    def test_higher_is_better(self, head, expected):
        # pass_ratio: bound 0.01, better when higher.
        base = [1.0] * 10 if expected != "gain" else [0.9, 0.91, 0.9, 0.89, 0.9] * 2
        assert bench.verdict(summary(base, head, better="higher"), 0.01) == expected

    def test_ties_win_nothing(self):
        assert summary(BASE, BASE)["pairs_won"] == 0
        assert bench.verdict(summary(BASE, BASE), 0.25) == "unresolved"
