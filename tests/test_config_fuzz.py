"""Property tests of config resolution on generated JSON configs."""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdims.cli import _SCHEMA, _Bounded, resolve_config
from affdims.errors import ConfigError

VALID = {
    "ifs": {"dim": 2, "maps": [[[0.5, 0], [0, 0.3]], [[0.4, 0], [0, 0.35]]]},
    "measure": {"type": "bernoulli", "probs": [0.6, 0.4]},
}
# Every schema key, the hand-resolved ones, and keys and sections that do
# not exist.
KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys] \
    + [("ifs", "maps"), ("ifs", "map1"), ("ifs", "map2"), ("ifs", "map3"),
       ("measure", "probs"), ("measure", "potential"), ("solve", "tolerance"),
       ("sample", "N"), ("bogus", "q")]

scalars = st.one_of(
    st.integers(),
    st.integers(min_value=10 ** 300, max_value=10 ** 330),  # past any float
    st.floats(),  # nan and +-inf included
    st.booleans(),
    st.text(max_size=8),
    st.sampled_from(["2", "0.5", "3.7", "1.5 2 3", "0.5 0 / 0 0.3", "nan",
                     "-inf", "markov", "Mesh", "both", "resample", "yes",
                     "0.6 0.4", "-0.7 -1.6 / -1.05 -0.8"]),
)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3),
                      max_leaves=8)


@st.composite
def configs(draw):
    """A valid config with some keys set to drawn values or removed."""
    cfg = copy.deepcopy(VALID)
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=5)):
        cfg.setdefault(section, {})[key] = draw(values)
    for section, key in draw(st.lists(st.sampled_from(KEYS), max_size=1)):
        cfg.get(section, {}).pop(key, None)
    return cfg


def resolve_json(directory, cfg):
    path = Path(directory) / "run.json"
    path.write_text(json.dumps(cfg))
    return resolve_config(path)


@settings(max_examples=400, deadline=None)
@given(configs())
def test_resolve_config_accepts_or_raises_config_error(cfg):
    # Any JSON config either resolves or fails with ConfigError (exit 2),
    # and a resolved config resolves again to itself.
    with tempfile.TemporaryDirectory() as tmp:
        try:
            resolved = resolve_json(tmp, cfg)
        except ConfigError:
            return
        again = resolve_json(tmp, resolved)
    # Compared as JSON text, so NaN values compare equal.
    assert json.dumps(again, sort_keys=True) == json.dumps(resolved,
                                                           sort_keys=True)


def test_generated_configs_reach_both_outcomes():
    # The property test above must see resolving configs, or its round
    # trip checks nothing.
    outcomes = set()

    @settings(max_examples=200, deadline=None, database=None)
    @given(configs())
    def record(cfg):
        with tempfile.TemporaryDirectory() as tmp:
            try:
                resolve_json(tmp, cfg)
                outcomes.add("resolved")
            except ConfigError:
                outcomes.add("rejected")

    record()
    assert outcomes == {"resolved", "rejected"}


BOUNDED = [(section, key, spec) for section, keys in _SCHEMA.items()
           for key, spec in keys.items() if isinstance(spec, _Bounded)]


def _edge_values(spec):
    """Each finite bound, and NaN for a float key, in the key's shape."""
    edges = [b for b in (spec.lo, spec.hi) if math.isfinite(b)]
    if not isinstance(spec.default, int):
        edges.append(math.nan)
    return [[v] if isinstance(spec.default, list) else v for v in edges]


@pytest.mark.parametrize("section, key, spec", BOUNDED,
                         ids=[f"{s}.{k}" for s, k, _ in BOUNDED])
def test_bounded_key_rejects_its_bounds(tmp_path, section, key, spec):
    # Every bounded key, including any added later, rejects the values on
    # its bounds and NaN, naming itself.
    edges = _edge_values(spec)
    assert edges
    for value in edges:
        cfg = copy.deepcopy(VALID)
        cfg.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError,
                           match=re.escape(f"[{section}] {key}: ")):
            resolve_json(tmp_path, cfg)
