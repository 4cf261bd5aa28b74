"""Tests for the benchmark itself: injector, span arithmetic, printed names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from emoguide.config import default_run_config  # noqa: E402
from emoguide.corpus import SynthConfig, filter_dialogs, synthesize_corpus  # noqa: E402

import run  # noqa: E402
from inject import Injector  # noqa: E402
from spans import Span, Tracer, self_time_by_name, self_times  # noqa: E402
from workloads import END_TO_END, PER_LAYER  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("seed", [0, 7])
def test_injector_produces_exactly_the_rejections_it_reports(seed):
    config = default_run_config()
    classifier, rules = config.classifier(), config.filter_rules()
    dialogs = synthesize_corpus(SynthConfig(num_dialogs=300), seed=seed)
    assert filter_dialogs(dialogs, classifier, rules)[1].retained_count == 300

    broken, counts = Injector(rules, classifier).inject(dialogs, 0.12, np.random.default_rng(seed))
    retained, report = filter_dialogs(broken, classifier, rules)

    assert counts == [6] * 6
    assert list(report.rejections) == counts
    assert report.retained_count == 300 - sum(counts)
    assert sum(a != b for a, b in zip(dialogs, broken)) == sum(counts)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps a: [1, 6] is covered once
        Span(3, "c", 8.0, 12.0, 0, 0),  # runs past the parent: only [8, 10] counts
        Span(4, "leaf", 2.0, 3.0, 1, 0),
        Span(5, "a", 20.0, 21.5, None, 1),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0, 5: 1.5}
    assert self_time_by_name(spans) == {"root": 3.0, "a": 3.5, "b": 3.0, "c": 4.0, "leaf": 1.0}


def test_tracer_wraps_module_and_class_names_and_restores_them():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def step(self, x):
            return module.inner(x) + 1

    module = SimpleNamespace(inner=lambda x: 2 * x)
    original_inner, original_step = module.inner, Box.__dict__["step"]
    seen = []
    tracer.wrap(module, "inner", "layer.inner", observe=lambda t, s, a, k, r: seen.append(r))
    tracer.wrap(Box, "step", "layer.step", new_group=True)

    assert Box().step(3) == 7
    assert seen == [6]
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("layer.step", None, "layer.inner", 0)
    assert outer.group == inner.group == 1
    assert self_time_by_name(tracer.spans) == {"layer.step": 2.0, "layer.inner": 1.0}

    tracer.uninstall()
    assert module.inner is original_inner and Box.__dict__["step"] is original_step


def test_catalogs_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_every_printed_name_is_well_formed_and_has_a_unit(trace):
    report, result = run.run_workload("corpus", seed=3, seconds=0.1, trace=trace)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalog = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in catalog]
    printed = {**result["metrics"], **report["named_metrics"]}
    for name, metric in printed.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(metric["unit"]), (name, metric["unit"])
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["corpus.filter.rejected.rule_6"]["value"] == pytest.approx(0.02)
        assert result["metrics"]["model.generate.calls"]["value"] == 0.0
