"""BENCHMARK.json agrees with the code and with the benchmark contract."""

import json
import os
import random
import re

from layers import Tally
from loadgen import REPO_ROOT, percentile
from workloads import LIBRARY, SERVICE

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])


def test_shape_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in SPEC["end_to_end"])}
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_declared_workloads_and_layers_are_the_measured_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(SERVICE + LIBRARY)
    assert set(Tally().metrics()) == {m["name"] for m in SPEC["per_layer"]}


def test_percentile_matches_a_sorted_list_reference():
    rng = random.Random(7)
    for size in (1, 2, 3, 10, 99, 100, 101, 1000):
        values = [rng.expovariate(1.0) for _ in range(size)]
        for q in (1, 25, 50, 90, 99, 100):
            # Reference: the smallest sample value with at least q% of the
            # sample at or below it, found by scanning every candidate.
            reference = min(v for v in values if sum(x <= v for x in values) * 100 >= q * size)
            assert percentile(values, q) == reference
