import types

import pytest

import spans


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]
    recorded = [
        [0, "root", 0.0, 10.0, None],
        [1, "a", 1.0, 5.0, 0],
        [2, "b", 2.0, 3.0, 1],
        [3, "c", 6.0, 9.0, 0],
    ]
    s = spans.summarize(recorded)
    assert s["root"]["self_s"] == pytest.approx(10 - 4 - 3)
    assert s["a"]["self_s"] == pytest.approx(4 - 1)
    assert s["b"]["self_s"] == pytest.approx(1)
    assert s["root"]["total_s"] == pytest.approx(10)
    assert spans.top_level_s(recorded, root="root") == pytest.approx(7)


def test_self_time_sums_repeated_calls():
    recorded = [
        [0, "outer", 0.0, 4.0, None],
        [1, "inner", 0.5, 1.0, 0],
        [2, "inner", 2.0, 3.5, 0],
        [3, "outer", 5.0, 6.0, None],
    ]
    s = spans.summarize(recorded)
    assert s["outer"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(4 - 2 + 1)
    assert s["inner"]["durations"] == [0.5, 1.5]


def test_recorder_nests_and_unpatches():
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    other = types.SimpleNamespace(f=mod.f)
    original = mod.f
    rec = spans.SpanRecorder("run-1")
    rec.patch([(mod, "f"), (other, "f")], "layer.f",
              lambda r, out, args: r.maximum("largest", out))
    outer = rec.begin("outer")
    assert mod.f(1) == 2 and other.f(4) == 5
    rec.end(outer)
    assert [(name, parent) for _, name, _, _, parent in rec.spans] == [
        ("outer", None), ("layer.f", 0), ("layer.f", 0)]
    assert rec.counters == {"largest": 5}
    rec.unpatch()
    assert mod.f is original and other.f is original


def test_percentile_interpolates():
    assert spans.percentile([], 50) == 0.0
    assert spans.percentile([3.0], 90) == 3.0
    assert spans.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert spans.percentile(range(11), 90) == pytest.approx(9.0)
