"""Property sweep over degenerate but valid datasets and malformed inputs.

Shapes include n < d, d = 1, m = 1 and zero targets, for shared and
per-task layouts. The examples are derandomized, so every run draws the
same ones.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetr import DataValidationError, fetr_objective, validate_dataset
from fetr.trainer import MONOTONE_SLACK
from fetr.wsolvers import GramCache, h_value

from conftest import random_spd

SWEEP = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def task_lists(draw):
    """(pairs, shared): a valid task list and whether its tasks pass one x."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    zero_targets = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shared:
        n = draw(st.integers(1, 8))
        x = rng.standard_normal((n, d))
        designs = [x] * m
    else:
        designs = [rng.standard_normal((draw(st.integers(1, 8)), d)) for _ in range(m)]
    pairs = [
        (x, np.zeros(x.shape[0]) if zero_targets else rng.standard_normal(x.shape[0]))
        for x in designs
    ]
    return pairs, shared


def _corrupt(pairs, kind: str, index: int):
    pairs = [(x.copy(), y.copy()) for x, y in pairs]
    i = index % len(pairs)
    x, y = pairs[i]
    if kind == "nan_x":
        x[0, 0] = np.nan
    elif kind == "inf_y":
        y[-1] = np.inf
    elif kind == "short_y":
        y = y[:-1]
    elif kind == "flat_x":
        x = x.ravel()
    elif kind == "empty_task":
        x, y = x[:0], y[:0]
    elif kind == "extra_column":
        x = np.hstack([x, x[:, :1]])
        pairs.append(pairs[i])  # a second task keeps the original width
    elif kind == "no_tasks":
        return []
    pairs[i] = (x, y)
    return pairs


@SWEEP
@given(task_lists())
def test_validation_idempotent_and_sharing_by_identity(drawn):
    pairs, shared = drawn
    data = validate_dataset(pairs)
    assert validate_dataset(data) is data
    assert data.shared_instances == (shared or len(pairs) == 1)
    if data.shared_instances:
        assert all(t.x is data.tasks[0].x for t in data.tasks)


@SWEEP
@given(task_lists(), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0]))
def test_gram_form_matches_direct_residual(drawn, seed, eta):
    data = validate_dataset(drawn[0])
    rng = np.random.default_rng(seed)
    d, m = data.d, data.m
    w = rng.standard_normal((d, m))
    sigma1 = random_spd(rng, d, 0.1, 10.0)
    sigma2 = random_spd(rng, m, 0.1, 10.0)
    logdets = m * np.linalg.slogdet(sigma1)[1] + d * np.linalg.slogdet(sigma2)[1]
    direct = h_value(w, data, sigma1, sigma2, eta) - eta * logdets
    # a tenth of the monotone guard's slack, as in test_trainer
    margin = 0.1 * MONOTONE_SLACK * (1.0 + abs(direct))
    for source in (data, GramCache(data)):
        assert abs(fetr_objective(w, sigma1, sigma2, source, eta) - direct) <= margin


@SWEEP
@given(
    task_lists(),
    st.sampled_from(
        ["nan_x", "inf_y", "short_y", "flat_x", "empty_task", "extra_column", "no_tasks"]
    ),
    st.integers(0, 3),
)
def test_bad_inputs_raise_typed_errors(drawn, kind, index):
    with pytest.raises(DataValidationError):
        validate_dataset(_corrupt(drawn[0], kind, index))
