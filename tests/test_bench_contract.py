"""The program surface the benchmark in ``bench/`` relies on.

A benchmark run imports the workloads, wraps each layer call listed in
``bench/tracer.py`` and reads encoder state for its reference encodings.
A renamed function, a method moved off its class or a dropped attribute
ends such a run with an ImportError, KeyError or AttributeError; these
tests turn that into a test failure instead.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_hdc.encoders import (
    QuantizedFeatureEncoder,
    TemporalFpeEncoder,
    TrigramTextEncoder,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        # importing the workloads imports every program name the benchmark uses
        workloads = importlib.import_module("workloads")
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))
    return workloads, tracer


def test_workloads_import(bench_modules):
    workloads, _ = bench_modules
    assert callable(workloads.derive)


def test_every_traced_layer_call_resolves(bench_modules):
    _, tracer = bench_modules
    for module_name, attr, *_ in tracer.LAYER_CALLS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            # the tracer wraps cls.__dict__[method]: an inherited method is missed
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr


def test_encoder_state_the_references_read():
    quantized = QuantizedFeatureEncoder(p=3, d=16, levels=4, seed=0)
    quantized.fit(np.random.default_rng(0).normal(size=(5, 3)))
    for array in (
        quantized.grid.mins,
        quantized.grid.maxs,
        quantized.im.vectors,
        quantized.lm.vectors,
    ):
        assert isinstance(array, np.ndarray)
    assert quantized.levels == 4

    temporal = TemporalFpeEncoder(p=3, d=16, t_max=4, seed=0)
    assert temporal.proj.W.shape == (16, 3)
    assert temporal.proj.beta > 0
    assert temporal.bank.base.phases.shape == (16,)

    assert TrigramTextEncoder(d=16, seed=0).im.vectors.shape == (27, 16)
