"""YAML files read line by line (or by ``yaml.load``) and written as libyaml's event stream.

Every document read and every error raised must be what ``yaml.load(fh,
Loader=YamlLoader)`` gives, whether the line reader reads the text or hands it
to ``yaml.load``, and every byte a trace, spec or config file holds what
``yaml.dump(doc, Dumper=YamlDumper, sort_keys=False)`` writes. Each test runs
on PyYAML's libyaml classes and again on its pure-Python safe classes.
"""

import glob
import math
import os
import re
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


def reads_lines(path):
    """True if the line reader reads the file; False if it hands it to ``yaml.load``."""
    with open(path) as fh:
        text = fh.read()
    loader = fileio.YamlLoader("")
    try:
        return fileio._line_document(text, loader) is not None
    except ValueError:
        return False
    finally:
        loader.dispose()


LONG_KEY = "k" * 1024  # YAML's longest one-line key

# Texts in the line subset: read line by line.
LINE_TEXTS = {
    "duplicate_keys": "a: 1\nb: 2\na: 3\n",
    "numbers": "- 1e3\n- 1_000\n- 0x1F\n- 0o17\n- 010\n- 0b101\n- 1:30\n- 190:20:30.15\n"
               "- -0.0\n- +1.5e+3\n- 1_0.5\n- 1.\n- .5\n- 1e-300\n",
    "specials": "- .inf\n- -.inf\n- .NaN\n- -.nan\n- ~\n- null\n- Null\n- ''\n",
    "booleans": "- yes\n- No\n- on\n- OFF\n- y\n- True\n- FALSE\n",
    "strings": "- 1.2.3\n- 12e\n- .\n- -x\n- a:b\n- a#b\n- a :b\n- x, y\n- f[1]\n- a  b\n"
               "- -- x\n- ---\n- =x\n- a'b\n- a\"b\n",
    "quoted": "'yes': 'it''s'\n'': ''''\n'a: b': '- x'\n' #': ' x '\n",
    "quoted_merge_key": "'<<': 1\n",
    "empty_collections": "a: {}\nb: []\nc:\n- {}\n- []\n",
    "unindented_sequences": "a:\n- 1\n- b:\n  - 2\n  c: 3\n- 4\nd: 5\n",
    "indented_sequences": "a:\n   - 1\n   - x\nb:\n     - c: 1\n       d:\n        - 2\n",
    "nested_mappings": "a:\n b:\n     c: 1\n d: 2\ne:\n  - f:\n       g: h\n    i: j\n",
    "root_sequence": "- a: 1\n  b: 2\n- c\n",
    "root_indented": "  a: 1\n  b:\n  - 2\n",
    "document_marker_keys": "---: 1\n...: 2\n",
    "long_key": f"{LONG_KEY}: 1\n",
    "trace": "schema_version: 1\nkind: trace\nframes:\n- cube:\n    position:\n    - 0.5\n"
             "    - -1.0\n    flags:\n      'yes': true\n",
}

# Texts outside the subset, valid or not: read by yaml.load, as before.
FALLBACK_TEXTS = {
    "flow": "a: [1, 'x', {b: c, d: [true, ~]}, [], {}]\nb: {e: [1.5, -2]}\n",
    "double_quoted": "a: \"1\"\nb: \"\\t\"\n",
    "block_scalars": "e: |\n  block\n  text\nf: >\n  folded\n",
    "multi_line_plain": "a: b\n  c\n",
    "multi_line_quoted": "a: 'b\n  c'\n",
    "non_ascii": "- é\n",
    "lone_dash": "- 1\n-\n",
    "lone_dash_space": "- 1\n- \n",
    "nested_dash": "- - 1\n  - 2\n",
    "empty_value": "a:\nb: 1\n",
    "empty_value_last": "a: 1\nb:\n",
    "empty_value_space": "a: \n",
    "comment_line": "# c\na: 1\n",
    "comment_after": "a: 1 # c\n",
    "trailing_space": "a: 1 \n",
    "trailing_space_after_key": "a: \n  b: 1\n",
    "tab": "a:\n\t- 1\n",
    "tab_value": "a:\t1\n",
    "blank_line": "a: 1\n\nb: 2\n",
    "no_final_newline": "a: 1",
    "empty": "",
    "empty_document": "---\n",
    "explicit_start": "---\na: 1\n",
    "explicit_end": "--- a\n...\n",
    "document_start_key": "--- a: 1\n",
    "two_documents": "a: 1\n---\nb: 2\n",
    "scalar": "5\n",
    "int_key": "1: a\n",
    "null_key": "~: a\n",
    "bool_key": "yes: 1\n",
    "float_key": "-0.0: a\n",
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
    "too_long_key": f"{LONG_KEY}k: 1\n",
    "unclosed_flow": "schema_version: 1\nkind: trace\nframes: [\n",
    "bad_indent": "a:\n  b: 1\n c: 2\n",
    "deeper_after_value": "a: 1\n  b: 2\n",
    "key_after_sequence": "a:\n  - 1\n  b: 2\n",
    "sequence_after_value": "a: 1\n- 2\n",
    "two_values": "a: b: c\n",
    "undefined_alias": "a: *nowhere\n",
    "binary": "a: !!binary aGk=\n",
    "bad_int": "a: 0x_\n",
    "bad_int_then_bad_syntax": "a: 0b_\nb: [\n",
    "bad_int_then_undefined_alias": "a: 0x_\nb: *x\n",
}

# Keys and scalars for generated block texts: each drawn from the subset's
# (string keys; scalars of the five plain tags, quoted, {} and []) seven times
# in eight, else from texts that send the document to yaml.load. Half the
# texts also get one piece of noise: a tab, a space, a comment, a marker, a dash.
KEYS = ["a", "b", "x y", "a:b", "a#b", "-", "---", "'it''s'", "'1'", "'yes'", "''"]
OTHER_KEYS = ["yes", "on", "null", "1", "~", "<<", "=", "é", "k" * 1025]
SCALARS = ["0x1F", "1_000", ".5", "~", "-0.0", "1e3", "'it''s'", "1.0e+300", ".inf", "-.nan",
           "yes", "on", "null", "1", "x", "a b", "-x", "a#b", "1:30", "''", "{}", "[]"]
OTHER_SCALARS = ["-", "a #b", "0x_", "2001-12-14", "=", "'", '"q"', "[1]", "&a x", "*a",
                 "!!str 1", "|", "é"]
NOISE = ["\t", " ", " # c", "\n# c", "\n---", "\n...", "\n", "- ", ":"]


def _token(draw, usual, other):
    return draw(st.sampled_from(other if draw(st.integers(0, 7)) == 0 else usual))


def _block(draw, indent, depth):
    """Lines of a block mapping or sequence at ``indent``, its values scalars or blocks."""
    mapping = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        head = " " * indent + (_token(draw, KEYS, OTHER_KEYS) + ":" if mapping else "-")
        shape = draw(st.integers(0, 11)) if depth < 3 else 0
        if shape < 6:
            lines.append(f"{head} {_token(draw, SCALARS, OTHER_SCALARS)}")
        elif shape == 6:  # an empty value, or a lone dash
            lines.append(head)
        elif mapping or shape == 7:  # the block on the lines below
            lines.append(head)
            lines.extend(_block(draw, indent + draw(st.integers(0, 3)), depth + 1))
        else:  # ``- key: ...`` or ``- - ...``
            inner = _block(draw, indent + 2, depth + 1)
            lines.append(head + " " + inner[0][indent + 2:])
            lines.extend(inner[1:])
    return lines


@st.composite
def block_texts(draw):
    """Block texts: nested mappings and sequences at drawn indents over awkward keys
    and scalars, half of them with one piece of noise put in."""
    text = "".join(line + "\n" for line in _block(draw, 0, 0))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(NOISE)) + text[at:]
    return text


class TestLoad:
    @pytest.mark.parametrize("name", sorted(LINE_TEXTS))
    def test_line_text_reads_lines_and_loads_as_yaml_load(self, platform, tmp_path, name):
        path = tmp_path / "doc.yaml"
        path.write_text(LINE_TEXTS[name])
        assert reads_lines(path)
        got, expected = read_both(path)
        assert got[0] == expected[0] == "doc" and same(got[1], expected[1])

    @pytest.mark.parametrize("name", sorted(FALLBACK_TEXTS))
    def test_other_text_falls_back_to_yaml_load(self, platform, tmp_path, name):
        path = tmp_path / "doc.yaml"
        path.write_text(FALLBACK_TEXTS[name])
        assert not reads_lines(path)
        got, expected = read_both(path)
        assert got[0] == expected[0] and same(got[1], expected[1])

    def test_undecodable_file_fails_as_yaml_load(self, platform, tmp_path):
        path = tmp_path / "doc.yaml"
        path.write_bytes(b"a: \xff\xfe\n")
        got, expected = read_both(path)
        assert got == expected and got[0] == "error"

    def test_shipped_files_read_lines_and_load_as_yaml_load(self, platform):
        paths = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
        assert len(paths) == 5
        for path in paths:
            assert reads_lines(path)
            got, expected = read_both(path)
            assert got[0] == "doc" and same(got[1], expected[1]), path

    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(text=block_texts())
    def test_block_text_loads_as_yaml_load(self, platform, tmp_path, text):
        path = tmp_path / "doc.yaml"
        path.write_text(text)
        got, expected = read_both(path)
        assert got[0] == expected[0] and same(got[1], expected[1])


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
def traces(draw, names=NAMES):
    """Groups of one over awkward ids, flag names (of ``names``) and coordinates."""
    horizon = draw(st.integers(1, 4))
    frames = []
    for _ in range(horizon):
        ids = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
        frames.append({
            eid: EntityState(
                position=np.array([draw(COORDINATES), draw(COORDINATES)]),
                radius=draw(COORDINATES),
                gripper_closed=draw(st.sampled_from([None, True, False])),
                attribute_flags=draw(st.dictionaries(st.sampled_from(names), st.booleans(),
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
    @given(trace=traces())
    def test_saved_trace_reads_lines_and_loads_as_yaml_load(self, platform, tmp_path, trace):
        path = tmp_path / "trace.yaml"
        fileio.save_trace(path, trace)
        # yaml.dump writes a non-ASCII name double-quoted, and PyYAML's pure-Python
        # dumper an empty one as an explicit ``? ''`` key
        if all(name and name.isascii() for name in trace.entity_ids + trace.flag_names):
            assert reads_lines(path)
        got, expected = read_both(path)
        assert got[0] == expected[0] == "doc" and same(got[1], expected[1])

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


# Plain texts close to the decimal form ``represent_float`` writes, each read as
# yaml.load reads it: a string, a float through YAML 1.1's other float forms, or
# a decimal text the shortcut converts (``007.5``, an overflow to inf).
NEAR_DECIMALS = ["1e-05", "1.0e5", "1.0E+5", "+1.5", ".5", "1.", "1_000.5", "1:30.5", "007.5",
                 ".inf", "-.nan", "1.0e+400", "-0.0"]
# The form itself, written here independently of the reader's own pattern.
WRITTEN_FLOAT = r"-?\d+\.\d+(e[-+]\d+)?"


class TestDecimalFloats:
    @PROPERTY
    @given(value=st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 3.0, -7.0, 1e16,
                                  1e17, 123456789.0, 1e-05])
           | st.floats(allow_nan=False, allow_infinity=False))
    def test_written_float_reads_back_with_its_repr(self, platform, tmp_path, value):
        path = tmp_path / "doc.yaml"
        fileio._dump_plain_yaml(path, {"x": [value]})
        assert re.fullmatch(WRITTEN_FLOAT, path.read_text().split()[-1])
        assert reads_lines(path)
        with open(path) as fh:
            got = fileio._read_yaml(fh)["x"][0]
        assert type(got) is float and repr(got) == repr(value)

    @pytest.mark.parametrize("text", NEAR_DECIMALS)
    def test_near_decimal_reads_as_yaml_load(self, platform, tmp_path, text):
        path = tmp_path / "doc.yaml"
        path.write_text(f"- {text}\n")
        assert reads_lines(path)
        got, expected = read_both(path)
        assert got[0] == expected[0] == "doc" and same(got[1], expected[1])
        assert repr(got[1]) == repr(expected[1])

    @PROPERTY
    @given(trace=traces(names=[name for name in NAMES if name and name.isascii()]))
    def test_saved_trace_resolves_no_decimal_float(self, platform, monkeypatch, trace):
        resolved = []

        class Loader(fileio.YamlLoader):
            def resolve(self, kind, value, implicit):
                resolved.append(value)
                return super().resolve(kind, value, implicit)

        with monkeypatch.context() as m, tempfile.TemporaryDirectory() as tmp:
            m.setattr(fileio, "YamlLoader", Loader)  # undone after each example
            path = os.path.join(tmp, "trace.yaml")
            fileio.save_trace(path, trace)
            with open(path) as fh:
                doc = fileio._read_yaml(fh)
        assert doc["horizon"] == trace.horizon and "kind" in resolved
        assert not [text for text in resolved if re.fullmatch(WRITTEN_FLOAT, str(text))]
