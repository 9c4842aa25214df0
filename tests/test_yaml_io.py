"""YAML files read from and written as libyaml's event stream.

Every document read and every error raised must be what ``yaml.load(fh,
Loader=YamlLoader)`` gives, and every byte a trace, spec or config file holds
what ``yaml.dump(doc, Dumper=YamlDumper, sort_keys=False)`` writes. Each test runs
on PyYAML's libyaml classes and again on its pure-Python safe classes.
"""

import glob
import math
import os
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from creflow import fileio
from creflow.trace import EntityState, TraceGroup

from conftest import experiment_configs, task_specs

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.fixture(params=["libyaml", "pure_python"])
def platform(request, monkeypatch):
    """Which PyYAML classes ``fileio`` reads and writes with."""
    if request.param == "pure_python":
        monkeypatch.setattr(fileio, "YamlLoader", yaml.SafeLoader)
        monkeypatch.setattr(fileio, "YamlDumper", yaml.SafeDumper)
    return request.param


def same(a, b):
    """Equal documents: same types, same key order, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def read_both(path):
    """(outcome of ``fileio._read_yaml``, outcome of ``yaml.load``): a document or an error."""
    def outcome(read):
        try:
            with open(path) as fh:
                return "doc", read(fh)
        except Exception as err:  # noqa: BLE001 - compared, not handled
            return "error", (type(err), str(err))
    return (outcome(fileio._read_yaml),
            outcome(lambda fh: yaml.load(fh, Loader=fileio.YamlLoader)))


def walks_events(path):
    """True if the event walker reads the file; False if it hands it to ``yaml.load``."""
    with open(path) as fh:
        loader = fileio.YamlLoader(fh)
        try:
            fileio._plain_document(loader)
        except (fileio._NotPlain, yaml.YAMLError, ValueError):
            return False
        finally:
            loader.dispose()
    return True


# Plain documents: read from the events.
PLAIN_TEXTS = {
    "flow": "a: [1, 'x', {b: c, d: [true, ~]}, [], {}]\nb: {e: [1.5, -2]}\n",
    "quoted": "a: 'yes'\nb: \"1\"\nc: '~'\nd: \"é\\t\"\ne: |\n  block\n  text\nf: >\n  folded\n",
    "duplicate_keys": "a: 1\nb: 2\na: 3\n",
    "numbers": "- 1e3\n- 1_000\n- 0x1F\n- 0o17\n- 010\n- 0b101\n- 1:30\n- 190:20:30.15\n"
               "- -0.0\n- +1.5e+3\n- 1_0.5\n- 1.\n- .5\n- 1e-300\n",
    "specials": "- .inf\n- -.inf\n- .NaN\n- -.nan\n- ~\n- null\n- Null\n-\n- ''\n",
    "booleans": "- yes\n- No\n- on\n- OFF\n- y\n- True\n- FALSE\n",
    "strings": "- a: b\n- '- x'\n- é\n- 1.2.3\n- 12e\n- -\n- .\n",
    "empty": "",
    "empty_document": "---\n",
    "explicit_end": "--- a\n...\n",
    "scalar": "5\n",
    "nested": "schema_version: 1\nkind: trace\nframes:\n- cube:\n    position: [0.5, -1.0]\n",
    "quoted_merge_key": "'<<': 1\n",
}

# Documents outside the plain subset: read by yaml.load, as before.
FALLBACK_TEXTS = {
    "anchor_alias": "a: &x [1, 2]\nb: *x\n",
    "merge_key": "base: &b {k: 1}\nderived:\n  <<: *b\n  j: 2\n",
    "merge_key_plain": "<<: {k: 1}\n",
    "explicit_float": "a: !!float \"1\"\n",
    "explicit_str": "a: !!str 1\n",
    "nonspecific_tag": "a: ! 1\n",
    "timestamp": "a: 2001-12-14\n",
    "value_key": "=: 1\n",
    "value": "a: =\n",
    "sequence_key": "? [a]\n: 1\n",
    "int_key": "1: a\n",
    "null_key": "~: a\n",
    "two_documents": "a: 1\n---\nb: 2\n",
    "unclosed_flow": "schema_version: 1\nkind: trace\nframes: [\n",
    "bad_indent": "a:\n  b: 1\n c: 2\n",
    "tab": "a:\n\t- 1\n",
    "undefined_alias": "a: *nowhere\n",
    "binary": "a: !!binary aGk=\n",
    "bad_int": "a: 0x_\n",
    "bad_int_then_bad_syntax": "a: 0b_\nb: [\n",
    "bad_int_then_undefined_alias": "a: 0x_\nb: *x\n",
}


class TestLoad:
    @pytest.mark.parametrize("name", sorted(PLAIN_TEXTS))
    def test_plain_text_walks_events_and_loads_as_yaml_load(self, platform, tmp_path, name):
        path = tmp_path / "doc.yaml"
        path.write_text(PLAIN_TEXTS[name])
        assert walks_events(path)
        got, expected = read_both(path)
        assert got[0] == expected[0] == "doc" and same(got[1], expected[1])

    @pytest.mark.parametrize("name", sorted(FALLBACK_TEXTS))
    def test_other_text_falls_back_to_yaml_load(self, platform, tmp_path, name):
        path = tmp_path / "doc.yaml"
        path.write_text(FALLBACK_TEXTS[name])
        assert not walks_events(path)
        got, expected = read_both(path)
        assert got[0] == expected[0] and same(got[1], expected[1])

    def test_undecodable_file_fails_as_yaml_load(self, platform, tmp_path):
        path = tmp_path / "doc.yaml"
        path.write_bytes(b"a: \xff\xfe\n")
        got, expected = read_both(path)
        assert got == expected and got[0] == "error"

    def test_shipped_files_walk_events_and_load_as_yaml_load(self, platform):
        paths = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
        assert len(paths) == 5
        for path in paths:
            assert walks_events(path)
            got, expected = read_both(path)
            assert got[0] == "doc" and same(got[1], expected[1]), path


def _yaml_dump(path, doc):
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=fileio.YamlDumper, sort_keys=False)


def written_bytes(tmp, doc):
    """(bytes ``_dump_plain_yaml`` writes for ``doc``, bytes ``yaml.dump`` writes)."""
    written = []
    for dump in (fileio._dump_plain_yaml, _yaml_dump):
        path = os.path.join(tmp, f"{len(written)}.yaml")
        dump(path, doc)
        with open(path, "rb") as fh:
            written.append(fh.read())
    return tuple(written)


# Ids and flag names YAML would read as other scalars, or not at all, unless quoted.
NAMES = ["cube", "yes", "null", "1", "a: b", "- x", "é", "", "~", "0x1F", "'q'"]
COORDINATES = (st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324, 2.5e-310, 3.0, -7.0, 1e17,
                                1e16, 123456789.0, math.inf, -math.inf, math.nan])
               | st.floats(width=64))


@st.composite
def traces(draw):
    """Groups of one over awkward ids, flag names and coordinates."""
    horizon = draw(st.integers(1, 4))
    frames = []
    for _ in range(horizon):
        ids = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3))
        frames.append({
            eid: EntityState(
                position=np.array([draw(COORDINATES), draw(COORDINATES)]),
                radius=draw(COORDINATES),
                gripper_closed=draw(st.sampled_from([None, True, False])),
                attribute_flags=draw(st.dictionaries(st.sampled_from(NAMES), st.booleans(),
                                                     max_size=3)),
            )
            for eid in ids
        })
    return TraceGroup.from_frames(horizon, frames, (draw(st.integers(4, 64)),
                                                    draw(st.integers(4, 64))))


def shipped_documents():
    """The documents of the shipped configs and specs, which are plain."""
    docs = []
    for path in sorted(glob.glob(os.path.join(CONFIGS, "*.yaml"))):
        with open(path) as fh:
            docs.append(yaml.load(fh, Loader=fileio.YamlLoader))
    return docs


def saved_bytes(monkeypatch, save, value):
    """(bytes ``save`` writes through ``_dump_plain_yaml``, bytes it writes via ``yaml.dump``)."""
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for dump in (fileio._dump_plain_yaml, _yaml_dump):
            path = os.path.join(tmp, f"{len(written)}.yaml")
            with monkeypatch.context() as m:
                m.setattr(fileio, "_dump_plain_yaml", dump)
                save(path, value)
            with open(path, "rb") as fh:
                written.append(fh.read())
    return tuple(written)


PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


class TestSave:
    @PROPERTY
    @given(trace=traces())
    def test_save_trace_writes_yaml_dump_bytes(self, platform, monkeypatch, trace):
        ours, reference = saved_bytes(monkeypatch, fileio.save_trace, trace)
        assert ours == reference

    @PROPERTY
    @given(spec=task_specs())
    def test_save_task_spec_writes_yaml_dump_bytes(self, platform, monkeypatch, spec):
        ours, reference = saved_bytes(monkeypatch, fileio.save_task_spec, spec)
        assert ours == reference

    @PROPERTY
    @given(cfg=experiment_configs())
    def test_save_experiment_config_writes_yaml_dump_bytes(self, platform, monkeypatch, cfg):
        ours, reference = saved_bytes(monkeypatch, fileio.save_experiment_config, cfg)
        assert ours == reference

    @pytest.mark.parametrize("doc", [
        {"a": [1, "x", None, {"b": [[], {}]}], "": -0.0, "yes": "no", "1": 1, "t": True},
        {1: "int key", 2.5: "float key", None: "null key", False: "bool key", True: 1},
        [],
        {},
        "scalar",
        None,
        *shipped_documents(),
    ])
    def test_plain_document_writes_yaml_dump_bytes(self, platform, tmp_path, doc):
        ours, reference = written_bytes(tmp_path, doc)
        assert ours == reference

    @pytest.mark.parametrize("doc", [{"numpy": np.float64(0.5)}, {"tuple": (1, 2)}],
                             ids=["numpy", "tuple"])
    def test_other_values_raise_representer_error(self, platform, tmp_path, doc):
        with pytest.raises(yaml.representer.RepresenterError, match="cannot represent"):
            fileio._dump_plain_yaml(tmp_path / "doc.yaml", doc)
