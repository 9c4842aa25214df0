"""Trace files: the canonical text read and written straight to and from the arrays.

``load_trace`` reads a trace's canonical text block by block and any other
text through ``yaml.load`` and the document checks. Every group it returns and
every error it raises must be the one that second path gives alone (the
canonical reader switched off). Every byte ``save_trace`` writes must be what
``yaml.dump(doc, Dumper=YamlDumper, sort_keys=False)`` writes for the trace's
document, assembled here from ``trace.frames``. Specs, configs and traces
outside the canonical text are read by ``yaml.load``: any text, well-formed YAML
or not, loads or raises a ``SchemaError`` naming the file. Each test runs on
PyYAML's libyaml classes and again on its pure-Python safe classes.
"""

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from creflow import fileio, simworld
from creflow.cli import main
from creflow.errors import SchemaError
from creflow.trace import EntityState, TraceGroup

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@pytest.fixture(params=["libyaml", "pure_python"])
def platform(request, monkeypatch):
    """Which PyYAML classes ``fileio`` reads and writes with."""
    if request.param == "pure_python":
        monkeypatch.setattr(fileio, "YamlLoader", yaml.SafeLoader)
        monkeypatch.setattr(fileio, "YamlDumper", yaml.SafeDumper)
    return request.param


def fields_of(group):
    """Every field of a group, array for array."""
    arrays = (group.xy, group.radius, group.gripper, group.flags, group.present)
    return (group.horizon, group.grid, group.entity_ids, group.flag_names,
            # bytes tell -0.0 from 0.0 and match NaN to NaN
            [(a.dtype, a.shape, a.tobytes()) for a in arrays])


def outcome(path):
    """What ``load_trace`` gives for ``path``: every field of the group, or the error."""
    try:
        group = fileio.load_trace(path)
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return "error", type(err), str(err)
    return ("group",) + fields_of(group)


def load_both(path, monkeypatch):
    """(``outcome`` of ``path``, its ``outcome`` with the canonical reader off)."""
    got = outcome(path)
    with monkeypatch.context() as m:
        m.setattr(fileio, "_canonical_cells", lambda text: None)
        return got, outcome(path)


def reads_canonical(path):
    """True if the canonical reader reads the file; False if ``yaml.load`` does."""
    with open(path) as fh:
        return fileio._canonical_cells(fh.read()) is not None


def trace_document(trace):
    """A trace's document, assembled from its frames."""
    frames = [
        {eid: {"position": [float(s.position[0]), float(s.position[1])],
               "radius": float(s.radius),
               "flags": {name: bool(bit) for name, bit in s.attribute_flags.items()},
               **({} if s.gripper_closed is None else {"gripper_closed": bool(s.gripper_closed)})}
         for eid, s in frame.items()}
        for frame in trace.frames]
    return {"schema_version": 1, "kind": "trace", "horizon": trace.horizon,
            "grid": list(trace.grid), "frames": frames}


def yaml_dump_bytes(path, doc):
    """The bytes ``yaml.dump`` writes for ``doc``, through a file at ``path``."""
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=fileio.YamlDumper, sort_keys=False)
    with open(path, "rb") as fh:
        return fh.read()


# Ids and flag names in the canonical form (the longest one included), and names
# YAML reads as other scalars, quotes, writes as ``? key`` or cannot write plain.
PLAIN_NAMES = ["cube", "arm_left", "in_container", "_", "B2", "k" * 122]
NAMES = ["cube", "yes", "Null", "ON", "null", "1", "a: b", "- x", "é", "", "~", "0x1F", "'q'",
         "k" * 123]
FINITE = st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324, 2.5e-310, 3.0, -7.0, 1e17, 1e16,
                          123456789.0, 1e-05]) | st.floats(allow_nan=False, allow_infinity=False)
COORDINATES = FINITE | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def traces(draw, canonical=None):
    """Groups of one. Drawn canonical (half of them unless ``canonical`` is given):
    plain names, finite numbers and no empty frame; otherwise awkward ids, flag
    names and coordinates, empty frames included."""
    if canonical is None:
        canonical = draw(st.booleans())
    names, numbers = (PLAIN_NAMES, FINITE) if canonical else (NAMES, COORDINATES)
    horizon = draw(st.integers(1, 4))
    frames = []
    for _ in range(horizon):
        ids = draw(st.lists(st.sampled_from(names), unique=True, min_size=int(canonical),
                            max_size=3))
        frames.append({
            eid: EntityState(
                position=np.array([draw(numbers), draw(numbers)]),
                radius=abs(draw(numbers)) if canonical else draw(numbers),
                gripper_closed=draw(st.sampled_from([None, True, False])),
                attribute_flags=draw(st.dictionaries(st.sampled_from(names), st.booleans(),
                                                     max_size=3)),
            )
            for eid in ids
        })
    return TraceGroup.from_frames(horizon, frames, (draw(st.integers(4, 64)),
                                                    draw(st.integers(4, 64))))


PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


class TestSave:
    @PROPERTY
    @given(trace=traces())
    def test_save_trace_writes_yaml_dump_bytes(self, platform, tmp_path, trace):
        fileio.save_trace(tmp_path / "trace.yaml", trace)
        reference = yaml_dump_bytes(tmp_path / "reference.yaml", trace_document(trace))
        assert (tmp_path / "trace.yaml").read_bytes() == reference

    @PROPERTY
    @given(trace=traces())
    def test_saved_trace_loads_as_yaml_load(self, platform, monkeypatch, tmp_path, trace):
        path = tmp_path / "trace.yaml"
        fileio.save_trace(path, trace)
        if all(name in PLAIN_NAMES for name in trace.entity_ids + trace.flag_names) \
                and np.isfinite(trace.xy).all() and np.isfinite(trace.radius).all() \
                and trace.present[0].any(axis=1).all():
            assert reads_canonical(path)
        got, expected = load_both(path, monkeypatch)
        assert got == expected

    @PROPERTY
    @given(trace=traces())
    def test_saved_trace_loads_as_itself(self, platform, tmp_path, trace):
        """Array for array, ids and flag order included; a trace holding a number no
        trace file may hold (not finite, or a negative radius) fails to load instead."""
        path = tmp_path / "trace.yaml"
        fileio.save_trace(path, trace)
        xy, radius = trace.xy[trace.present], trace.radius[trace.present]
        if np.isfinite(xy).all() and np.isfinite(radius).all() and (radius >= 0).all():
            assert fields_of(fileio.load_trace(path)) == fields_of(trace)
        else:
            with pytest.raises(SchemaError, match="must be"):
                fileio.load_trace(path)


# A hand-written trace in the canonical text: two frames, an arm and a cube.
CANONICAL = """\
schema_version: 1
kind: trace
horizon: 2
grid:
- 24
- 24
frames:
- arm:
    position:
    - 1.5
    - -2.0
    radius: 0.9
    flags: {}
    gripper_closed: false
  cube:
    position:
    - 3.0
    - 4.25
    radius: 0.7
    flags:
      in_container: false
- arm:
    position:
    - 2.5
    - -1.0e-05
    radius: 0.9
    flags: {}
    gripper_closed: true
  cube:
    position:
    - 3.0
    - 4.25
    radius: 0.7
    flags:
      in_container: true
"""
CUBE_BLOCK = "  cube:\n    position:\n    - 3.0\n    - 4.25\n    radius: 0.7\n"
ARM_POSITION = "    position:\n    - 1.5\n    - -2.0\n"

# Texts near the canonical one: (text, read by the canonical reader). Each must
# give the group, or the error, that the yaml.load path gives.
NEAR_MISSES = {
    "octal_horizon": (CANONICAL.replace("horizon: 2", "horizon: 010"), False),
    "short_exponent": (CANONICAL.replace("- -2.0", "- 1e-05"), False),
    "overflow": (CANONICAL.replace("- -2.0", "- 1.0e+400"), False),
    "id_yes": (CANONICAL.replace("arm:", "yes:"), False),
    "id_Null": (CANONICAL.replace("arm:", "Null:"), False),
    "id_ON": (CANONICAL.replace("arm:", "ON:"), False),
    "id_122": (CANONICAL.replace("arm:", "a" * 122 + ":"), True),
    "id_123": (CANONICAL.replace("arm:", "a" * 123 + ":"), False),
    "id_200": (CANONICAL.replace("arm:", "a" * 200 + ":"), False),
    "repeated_entity": (CANONICAL + CUBE_BLOCK + "    flags: {}\n", False),
    "repeated_flag": (CANONICAL + "      in_container: false\n", False),
    "radius_first": (CANONICAL.replace(ARM_POSITION + "    radius: 0.9\n",
                                       "    radius: 0.9\n" + ARM_POSITION, 1), False),
    "negative_radius": (CANONICAL.replace("radius: 0.7", "radius: -0.7", 1), False),
    "tab": (CANONICAL.replace("flags: {}", "flags:\t{}", 1), False),
    "trailing_space": (CANONICAL.replace("radius: 0.9\n", "radius: 0.9 \n", 1), False),
    "comment": (CANONICAL.replace("grid:\n", "grid: # rows, columns\n"), False),
    "no_final_newline": (CANONICAL[:-1], False),
    "crlf": (CANONICAL.replace("\n", "\r\n"), True),
    "empty_frame": (CANONICAL.replace("horizon: 2", "horizon: 3") + "- {}\n", False),
    "mapping_frames": (CANONICAL.replace("- arm:", "  arm:", 1), False),
    "extra_key": ("note: x\n" + CANONICAL, False),
    "null_gripper": (CANONICAL.replace("gripper_closed: false", "gripper_closed: null"), False),
    "flow_position": (CANONICAL.replace(ARM_POSITION, "    position: [1.5, -2.0]\n"), False),
    "quoted_id": (CANONICAL.replace("arm:", "'arm':"), False),
    "int_coordinate": (CANONICAL.replace("- 1.5", "- 3"), False),
    "horizon_mismatch": (CANONICAL.replace("horizon: 2", "horizon: 3"), True),
    "small_grid": (CANONICAL.replace("- 24\n- 24", "- 2\n- 24"), True),
    "schema_version": (CANONICAL.replace("schema_version: 1", "schema_version: 2"), False),
}


def write(path, text):
    path.write_bytes(text.encode())  # CRLF endings kept
    return path


def block(eid, x, flags=(), closed=None, opens_frame=False):
    """One entity block of the canonical text, with (name, bit) flag pairs in order."""
    flag_lines = "".join(f"      {name}: {'true' if bit else 'false'}\n" for name, bit in flags)
    return (f"{'- ' if opens_frame else '  '}{eid}:\n    position:\n    - {x}\n    - 1.0\n"
            f"    radius: 0.5\n" + (f"    flags:\n{flag_lines}" if flags else "    flags: {}\n")
            + ("" if closed is None else f"    gripper_closed: {'true' if closed else 'false'}\n"))


def canonical_text(frames):
    """The canonical text of frames, each a list of ``block`` argument tuples."""
    return ("schema_version: 1\nkind: trace\nhorizon: %d\ngrid:\n- 8\n- 8\nframes:\n"
            % len(frames) + "".join(block(*cell, opens_frame=i == 0)
                                    for frame in frames for i, cell in enumerate(frame)))


ARM = ("arm", "0.5")
# Canonical texts whose entity columns and flag slots a column-wise fill could number
# in another order: (frames, the entity ids and flag names numbered by first appearance).
ORDERINGS = {
    "entity_first_seen_in_frame_3": (
        [[ARM], [ARM], [ARM, ("cube", "2.0")], [("cube", "2.5"), ARM]], ("arm", "cube"), ()),
    "entity_absent_from_a_middle_frame": (
        [[("cube", "2.0"), ARM], [ARM], [ARM, ("cube", "3.0")]], ("cube", "arm"), ()),
    "flag_subsets_and_orders": (
        [[("cube", "2.0", [("b", True)]), ARM],
         [("cube", "2.0", [("a", False), ("b", False)]), ("arm", "0.5", [("c", True)])],
         [("cube", "2.0", [("c", False), ("a", True)])]],
        ("cube", "arm"), ("b", "a", "c")),
    "flag_set_on_a_later_entity_first": (
        [[ARM, ("cube", "2.0", [("y", True), ("x", False)])], [("arm", "0.5", [("x", True)])]],
        ("arm", "cube"), ("y", "x")),
    "gripper_on_some_frames": (
        [[("arm", "0.5", (), True), ("cube", "2.0")], [ARM, ("cube", "2.0")],
         [("cube", "2.0"), ("arm", "0.5", (), False)]],
        ("arm", "cube"), ()),
}


class TestCanonicalReader:
    def test_hand_written_text_is_canonical(self, platform, monkeypatch, tmp_path):
        path = write(tmp_path / "trace.yaml", CANONICAL)
        assert reads_canonical(path)
        got, expected = load_both(path, monkeypatch)
        assert got == expected and got[0] == "group"
        fileio.save_trace(tmp_path / "again.yaml", fileio.load_trace(path))
        assert (tmp_path / "again.yaml").read_text() == CANONICAL

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_first_appearance_numbering(self, platform, monkeypatch, tmp_path, name):
        frames, entity_ids, flag_names = ORDERINGS[name]
        path = write(tmp_path / "trace.yaml", canonical_text(frames))
        assert reads_canonical(path)
        got, expected = load_both(path, monkeypatch)
        assert got == expected and got[0] == "group"
        group = fileio.load_trace(path)
        assert (group.entity_ids, group.flag_names) == (entity_ids, flag_names)

    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_near_miss_loads_as_yaml_load(self, platform, monkeypatch, tmp_path, name):
        text, canonical = NEAR_MISSES[name]
        path = write(tmp_path / "trace.yaml", text)
        assert reads_canonical(path) == canonical
        got, expected = load_both(path, monkeypatch)
        assert got == expected

    def test_undecodable_file_fails_as_yaml_load(self, platform, monkeypatch, tmp_path):
        path = tmp_path / "trace.yaml"
        path.write_bytes(CANONICAL.encode().replace(b"cube", b"cu\xffbe"))
        got, expected = load_both(path, monkeypatch)
        assert got == expected and got[0] == "error"

    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(trace=traces(canonical=True), data=st.data())
    def test_edited_text_loads_as_yaml_load(self, platform, monkeypatch, tmp_path, trace, data):
        path = tmp_path / "trace.yaml"
        fileio.save_trace(path, trace)
        lines = path.read_text().splitlines(keepends=True)
        for _ in range(data.draw(st.integers(1, 2))):
            at = data.draw(st.integers(0, len(lines) - 1))
            edit = data.draw(st.sampled_from(EDITS))
            lines[at:at + 1] = edit(lines[at], data)
        write(path, "".join(lines))
        got, expected = load_both(path, monkeypatch)
        assert got == expected


# Line edits: a line dropped or repeated, a piece of noise put in, or a value or
# key replaced by another scalar. Each keeps the text close to the canonical one.
NOISE = ["\t", " ", " # c", "\n# c", "\n---", "\n...", "\n", "- ", ":", "'", "{}", "é"]
SCALARS = ["yes", "Null", "1", "010", "1e-05", "1.0e+400", "-.inf", ".nan", "-0.0", "x y", "''",
           "[]", "{}", "true", "~", "k" * 123]


def _splice(line, data):
    at = data.draw(st.integers(0, len(line) - 1))
    return [line[:at] + data.draw(st.sampled_from(NOISE)) + line[at:]]


def _scalar(line, data):
    head, sep, _ = line.rpartition(" ")
    return [head + sep + data.draw(st.sampled_from(SCALARS)) + "\n"] if sep else [line]


def _key(line, data):
    stripped = line.lstrip(" -")
    key, sep, rest = stripped.partition(":")
    indent = line[:len(line) - len(stripped)]
    return [indent + data.draw(st.sampled_from(SCALARS)) + sep + rest] if sep else [line]


EDITS = [lambda line, data: [], lambda line, data: [line, line], _splice, _scalar, _key]


# Plain texts close to the decimal form ``represent_float`` writes, each put in as
# a coordinate and read as yaml.load reads it: a string (an error), a float through
# YAML 1.1's other float forms (the yaml.load path), or a decimal text the
# canonical reader converts (``007.5``; an overflow to inf it hands to yaml.load).
NEAR_DECIMALS = ["1e-05", "1.0e5", "1.0E+5", "+1.5", ".5", "1.", "1_000.5", "1:30.5", "007.5",
                 ".inf", "-.nan", "1.0e+400", "-0.0"]
# The form itself, written here independently of the reader's own pattern.
WRITTEN_FLOAT = r"-?\d+\.\d+(e[-+]\d+)?"


class TestDecimalFloats:
    @PROPERTY
    @given(value=FINITE)
    def test_written_float_reads_back_with_its_repr(self, platform, tmp_path, value):
        trace = TraceGroup.from_frames(1, [{"cube": EntityState(np.array([value, -value]),
                                                                abs(value), None, {})}], (4, 4))
        path = tmp_path / "trace.yaml"
        fileio.save_trace(path, trace)
        for line in path.read_text().splitlines()[9:12]:
            assert re.fullmatch(WRITTEN_FLOAT, line.split()[-1]), line
        assert reads_canonical(path)
        group = fileio.load_trace(path)
        assert [repr(v) for v in (*group.xy[0, 0, 0].tolist(), group.radius[0, 0, 0].item())] \
            == [repr(v) for v in (value, -value, abs(value))]

    @pytest.mark.parametrize("text", NEAR_DECIMALS)
    def test_near_decimal_coordinate_reads_as_yaml_load(self, platform, monkeypatch, tmp_path,
                                                        text):
        path = write(tmp_path / "trace.yaml", CANONICAL.replace("- 4.25", f"- {text}", 1))
        assert reads_canonical(path) == (bool(re.fullmatch(WRITTEN_FLOAT, text))
                                         and text != "1.0e+400")
        got, expected = load_both(path, monkeypatch)
        assert got == expected

    @PROPERTY
    @given(trace=traces(canonical=True))
    def test_saved_trace_resolves_no_decimal_float(self, platform, monkeypatch, tmp_path, trace):
        resolved = []

        class Loader(fileio.YamlLoader):
            def resolve(self, kind, value, implicit):
                resolved.append(value)
                return super().resolve(kind, value, implicit)

        path = tmp_path / "trace.yaml"
        fileio.save_trace(path, trace)
        with monkeypatch.context() as m:
            m.setattr(fileio, "YamlLoader", Loader)  # undone after each example
            fileio.load_trace(path)
        assert set(resolved) == set(trace.entity_ids + trace.flag_names)


def _refuse(*args, **kwargs):
    raise AssertionError("PyYAML read or wrote a trace the canonical path should carry")


@pytest.fixture(scope="module")
def rollout_traces(tmp_path_factory):
    """The traces ``creflow train --dump-traces 4`` writes for ``configs/creflow.yaml``."""
    out = tmp_path_factory.mktemp("rollouts")
    assert main(["train", "--config", os.path.join(CONFIGS, "creflow.yaml"),
                 "--out-dir", str(out), "--dump-traces", "4"]) == 0
    names = sorted(os.listdir(out / "traces"))
    assert len(names) == 4
    return [str(out / "traces" / name) for name in names]


def replay_group(gid=0):
    """A replay-shaped group: eight scripted pick_place demos, horizon 32, 64x64 grid."""
    world = simworld.WorldConfig(template="pick_place", horizon=32, grid=(64, 64))
    rng = np.random.default_rng((7, gid))
    traces = []
    for _ in range(8):
        condition = simworld.sample_condition(world, rng)
        z = simworld.scripted_demo(world, condition, rng)
        traces.append(simworld.decode_trace(simworld.latent_from_flat(z, world), world, condition))
    return traces


class TestCanonicalTraffic:
    """The traces the package writes take the canonical path both ways, PyYAML unused."""

    def test_dumped_rollouts(self, platform, monkeypatch, tmp_path, rollout_traces):
        originals = [Path(path).read_bytes() for path in rollout_traces]
        monkeypatch.setattr(yaml, "load", _refuse)
        monkeypatch.setattr(yaml, "dump", _refuse)
        for i, (path, original) in enumerate(zip(rollout_traces, originals)):
            again = tmp_path / f"{i}.yaml"
            fileio.save_trace(again, fileio.load_trace(path))
            assert again.read_bytes() == original
            fileio.load_trace(again)

    def test_replay_group(self, platform, monkeypatch, tmp_path):
        traces = replay_group()
        monkeypatch.setattr(yaml, "load", _refuse)
        monkeypatch.setattr(yaml, "dump", _refuse)
        for i, trace in enumerate(traces):
            path = tmp_path / f"{i}.yaml"
            fileio.save_trace(path, trace)
            assert fields_of(fileio.load_trace(path)) == fields_of(trace)


LONG_KEY = "k" * 1024  # YAML's longest one-line key

# YAML texts, valid or not: key, scalar, collection and layout forms that
# ``yaml.load`` reads otherwise than a plain reading of the text suggests, and
# each way it can fail (a parse error, an undefined alias, a scalar with no value).
YAML_TEXTS = {
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
    "bad_date": "a: 2001-13-45\n",
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

LOADERS = {"task_spec": fileio.load_task_spec, "experiment": fileio.load_experiment_config,
           "trace": fileio.load_trace}


class TestYamlInputs:
    @pytest.mark.parametrize("name", sorted(YAML_TEXTS))
    def test_text_loads_or_raises_schema_error(self, platform, monkeypatch, tmp_path, name):
        """Each text, as it is and after a valid header, read as a spec, a config or a
        trace: it loads or raises a SchemaError naming the file, never another error."""
        path = tmp_path / "doc.yaml"
        for kind, load in LOADERS.items():
            for text in (YAML_TEXTS[name], f"schema_version: 1\nkind: {kind}\n" + YAML_TEXTS[name]):
                path.write_text(text)
                try:
                    load(path)
                except SchemaError as err:
                    assert str(err).startswith(f"{path}: "), (kind, text)
                if kind == "trace":
                    got, expected = load_both(path, monkeypatch)
                    assert got == expected
