import hashlib
import json
import math
import os
import re
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plbounds.estimator import SyntheticEstimator, SyntheticEstimatorConfig
from plbounds.geometry import PointCloud
from plbounds import io

import oracles


def _cloud(rng, n=37):
    return PointCloud(rng.normal(scale=50.0, size=(n, 3)))


def test_cloud_bin_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    cloud = _cloud(rng, n=101)
    path = tmp_path / "c.bin"
    io.write_cloud_bin(cloud, path)
    back = io.read_cloud_bin(path)
    assert np.array_equal(back.points, cloud.points)


def test_cloud_bin_truncation_detected(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "c.bin"
    io.write_cloud_bin(_cloud(rng, n=5), path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        io.read_cloud_bin(path)
    path.write_bytes(b"\x01")
    with pytest.raises(ValueError):
        io.read_cloud_bin(path)


def test_json_deterministic_bytes(tmp_path):
    doc = {"b": 2, "a": [1.5, None, "x"], "c": {"y": True}}
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    io.write_json(doc, p1)
    io.write_json(dict(reversed(list(doc.items()))), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert io.read_json(p1) == doc


def _dumps_outcome(encode, doc):
    """The text ``encode`` gives ``doc``, or the type and message of its error."""
    try:
        return encode(doc)
    except Exception as exc:
        return type(exc), str(exc)


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


_JSON_NUMBERS = st.one_of(
    st.integers(),
    st.integers(-(10**80), 10**80),
    st.floats(),  # -0.0, NaN and the infinities among them
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 2**64, -(2**63)]),
)
_AWKWARD = ['"', "\\", "\x00", "\x1f", "\n", "\u2028", "é", "漢", "\U0001f600", ", ", "[", "]"]
_JSON_TEXT = st.one_of(st.text(), st.lists(st.sampled_from(_AWKWARD)).map("".join))
_NUMBER_KEYS = st.one_of(st.integers(-9, 9), st.floats(allow_nan=False))  # json.dumps cannot sort them among str keys
_NOT_JSON = st.sampled_from([np.int64(3), {1, 2}, set(), b"bytes", np.bool_(True)])


def _json_values(leaves, keys=_NUMBER_KEYS):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(_JSON_TEXT, inner, max_size=5),
            st.dictionaries(keys, inner, max_size=3),
            st.lists(st.one_of(_JSON_NUMBERS, st.booleans()), max_size=6),
            st.lists(st.lists(st.integers(-5, 10**6), min_size=1, max_size=4), max_size=4),
            st.lists(st.lists(st.one_of(_JSON_NUMBERS, st.booleans()), max_size=3), max_size=3),
        ),
        max_leaves=30,
    )


_JSON_SCALARS = st.one_of(_JSON_NUMBERS, _JSON_TEXT, st.booleans(), st.none())


@settings(max_examples=400, deadline=None)
@given(doc=_json_values(_JSON_SCALARS))
def test_json_text_is_the_indented_sorted_dumps(doc):
    assert io.json_text(doc) == _canonical(doc)


@settings(max_examples=200, deadline=None)
@given(doc=_json_values(st.one_of(_JSON_SCALARS, _NOT_JSON), st.one_of(_NUMBER_KEYS, _JSON_TEXT)))
def test_json_text_fails_where_dumps_fails(doc):
    assert _dumps_outcome(io.json_text, doc) == _dumps_outcome(_canonical, doc)


@pytest.mark.parametrize(
    "doc",
    [
        np.int64(1), [1, np.int64(2)], [[1, 2], [3, np.int64(4)]], {"a": {"b": {1, 2}}}, [set()], (b"x",),
        {"k": [np.float32(1.5)]},
    ],
)
def test_json_text_raises_the_type_error_dumps_raises(doc):
    with pytest.raises(TypeError) as want:
        _canonical(doc)
    with pytest.raises(TypeError) as got:
        io.json_text(doc)
    assert str(got.value) == str(want.value)


def test_json_text_leaves_a_cycle_to_dumps():
    cycle = {"a": [1]}
    cycle["a"].append(cycle)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        io.json_text(cycle)


def test_jsonl_round_trip(tmp_path):
    rows = [{"k": 1}, {"k": 2, "v": [1, 2]}, {"k": 3}]
    path = tmp_path / "r.jsonl"
    io.write_jsonl(rows, path)
    assert io.read_jsonl(path) == rows


def test_jsonl_names_line_that_is_not_json(tmp_path):
    path = tmp_path / "r.jsonl"
    # blank lines are skipped, yet still counted in the reported line
    path.write_text('{"k": 1}\n\n{"k": 2, "v": [1, 2\n')
    with pytest.raises(ValueError, match=r"r\.jsonl:3: Expecting ',' delimiter: line 1 column 20"):
        io.read_jsonl(path)


def test_quaternion_lines_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    q = rng.normal(size=(25, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    path = tmp_path / "q.jsonl"
    io.write_quaternion_lines(q, path)
    assert np.array_equal(io.read_quaternion_lines(path), q)


def test_quaternion_lines_empty_and_invalid(tmp_path):
    path = tmp_path / "q.jsonl"
    io.write_quaternion_lines(np.empty((0, 4)), path)
    assert io.read_quaternion_lines(path).shape == (0, 4)
    path.write_text("[1.0, 0.0, 0.0]\n")
    with pytest.raises(ValueError):
        io.read_quaternion_lines(path)


def _outcome(read, path):
    """The array's shape and bits, or the error's type and message."""
    try:
        arr = read(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return arr.shape, arr.tobytes()


def _json_route_only():
    """Inside the block, a file that reaches the per-line reader fails."""
    return mock.patch.object(io, "read_jsonl", side_effect=AssertionError("read line by line"))


def test_quaternion_lines_match_json_reader_on_a_written_file(tmp_path):
    quats = SyntheticEstimator(SyntheticEstimatorConfig(seed=3)).rotation_residual_samples(100_000, 3)
    path = tmp_path / "q.jsonl"
    io.write_quaternion_lines(quats, path)
    with _json_route_only():
        got = io.read_quaternion_lines(path)
    assert got.tobytes() == oracles.json_quaternion_lines(path).tobytes() == quats.tobytes()


# JSON numerals: integers (big ones too), fractions, exponents out of range
_NUMERALS = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,25})(\.[0-9]{1,25})?([eE][-+]?[0-9]{1,3})?", fullmatch=True),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from(
            [repr(x), f"{x:.17e}", f"{x:.17E}", f"{x:.3g}", json.dumps(x)]
            + ([str(int(x))] if x.is_integer() and abs(x) < 1e300 else [])
        )
    ),
    st.sampled_from(["-0", "-0.0", "0", "5e-324", "-2.2250738585072014e-308", "1e308", "1.7976931348623157e+308"]),
)
_BLANKS = st.sampled_from(["", "", " ", "\t", " \t "])


@st.composite
def _quaternion_file(draw, values=st.just(4), numerals=_NUMERALS):
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANKS))
        items = [draw(_BLANKS) + draw(numerals) + draw(_BLANKS) for _ in range(draw(values))]
        lines.append(draw(_BLANKS) + "[" + ",".join(items) + "]" + draw(_BLANKS))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _fast_route_expected(text: str) -> bool:
    """Only a line of blanks or a bare -0 (JSON's integer 0) needs the per-line reader."""
    return not (re.search(r"^[ \t]+\r?$", text, re.M) or re.search(r"-0(?![.eE0-9])", text))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_quaternion_file())
def test_quaternion_lines_match_json_reader_bit_for_bit(tmp_path, text):
    path = tmp_path / "q.jsonl"
    path.write_bytes(text.encode())
    want = _outcome(oracles.json_quaternion_lines, path)
    assert _outcome(io.read_quaternion_lines, path) == want
    assert want[0] == (text.count("["), 4)
    if _fast_route_expected(text):
        with _json_route_only():
            assert _outcome(io.read_quaternion_lines, path) == want


_BAD_NUMERALS = st.sampled_from(
    [".5", "1.", "+1", "01", "-01", "-.5", "1.e5", "1e", "1e+", "1.2.3", "1..2", "1e5e5", "- 1", "1 2",
     "NaN", "Infinity", "-Infinity", "0x1", "1_0", '"1"', "", "[1]", "1/2", "\x0b1", "1#"]
)  # fmt: skip


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=_quaternion_file(
        values=st.sampled_from([4, 4, 4, 3, 5]),
        numerals=st.one_of(_NUMERALS, _NUMERALS, _NUMERALS, _BAD_NUMERALS),
    )
)
def test_quaternion_lines_fail_like_json_reader(tmp_path, text):
    path = tmp_path / "q.jsonl"
    path.write_bytes(text.encode())
    assert _outcome(io.read_quaternion_lines, path) == _outcome(oracles.json_quaternion_lines, path)


@pytest.mark.parametrize(
    "text",
    [
        "[.5, 0, 0, 0]\n",
        "[1., 0, 0, 0]\n",
        "[+1, 0, 0, 0]\n",
        "[01, 0, 0, 0]\n",
        "[1, 0, 0, 0]\n[[1, 0, 0, 0]]\n",
        "[1, 0, 0]\n",
        "[1, 0, 0, 0]\n[1, 0, 0]\n",
        "[1, 0, 0, 0, 0]\n[1, 0, 0, 0, 0]\n",
        "[NaN, 0, 0, 0]\n",
        "[Infinity, -Infinity, 0, 0]\n",
        "[1, 0, 0, 0]\n[1, 0,",
        "[-0, 0, 0, 0]\n",
        "[1e999, 0, 0, 0]\n",
        "[1" + "0" * 400 + ", 0, 0, 0]\n",
        "[1, 0, 0, 0]\r[1, 0, 0, 0]\n",
        "[1, 0, 0, 0] [1, 0, 0, 0]\n",
        "[1, 0, 0, 0]\n1, 0, 0, 0]\n",
        "[1, 0, 0, 0\n",
        "[1, 0, 0, 0]]\n",
        "[1, 0, 0, 0],\n",
        "[1, 0, 0, 0]\n\x0c\n",
    ],
)
def test_quaternion_lines_point_cases_match_json_reader(tmp_path, text):
    path = tmp_path / "q.jsonl"
    path.write_bytes(text.encode())
    assert _outcome(io.read_quaternion_lines, path) == _outcome(oracles.json_quaternion_lines, path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_quaternion_file(), chunk=st.integers(1, 48))
def test_quaternion_lines_read_in_small_blocks_match_json_reader(tmp_path, text, chunk):
    # block edges fall inside lines, on CR LF pairs and on blank lines
    path = tmp_path / "q.jsonl"
    path.write_bytes(text.encode())
    want = _outcome(oracles.json_quaternion_lines, path)
    with mock.patch.object(io, "_CHECK_CHUNK", chunk):
        assert _outcome(io.read_quaternion_lines, path) == want
        if _fast_route_expected(text):
            with _json_route_only():
                assert _outcome(io.read_quaternion_lines, path) == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    text=_quaternion_file(
        values=st.sampled_from([4, 4, 4, 3, 5]),
        numerals=st.one_of(_NUMERALS, _NUMERALS, _NUMERALS, _BAD_NUMERALS),
    ),
    chunk=st.integers(1, 48),
)
def test_quaternion_lines_read_in_small_blocks_fail_like_json_reader(tmp_path, text, chunk):
    path = tmp_path / "q.jsonl"
    path.write_bytes(text.encode())
    with mock.patch.object(io, "_CHECK_CHUNK", chunk):
        assert _outcome(io.read_quaternion_lines, path) == _outcome(oracles.json_quaternion_lines, path)


@pytest.mark.parametrize(
    "text",
    [
        "[1, 0, 0, 0]\r\n[0, 1, 0, 0]\r\n[0, 0, 1, 0]\r\n",
        "[1, 0, 0, 0]\n\n\n\n[0, 1, 0, 0]\n\n",
        "\r\n\r\n[1, 0, 0, 0]\r\n\r\n\r\n[0, 1, 0, 0]",
        "[1, 0, 0, 0]\n[0, 1, 0, 0]",
        "\n\n\n",
        "[1, 0, 0, 0]\n\n[1, 0, 0]\n",
        "[1, 0, 0, 0]\n  \n[0, 1, 0, 0]\n",
        "[1, 0, 0, 0]\n[-0, 1, 0, 0]\n",
        "[1, 0, 0, 0]\n\n[1" + "0" * 400 + ", 0, 0, 0]\n",
        "[1, 0, 0, 0]\n[1, 0,",
    ],
)
def test_quaternion_lines_match_json_reader_wherever_a_block_ends(tmp_path, text):
    path = tmp_path / "q.jsonl"
    path.write_bytes(text.encode())
    want = _outcome(oracles.json_quaternion_lines, path)
    for chunk in range(1, len(text) + 2):
        with mock.patch.object(io, "_CHECK_CHUNK", chunk):
            assert _outcome(io.read_quaternion_lines, path) == want, chunk
            if "[" in text and isinstance(want[0], tuple) and _fast_route_expected(text):
                with _json_route_only():
                    assert _outcome(io.read_quaternion_lines, path) == want, chunk


def test_results_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    rows = [tuple(rng.normal(size=7)) for _ in range(11)]
    path = tmp_path / "r.csv"
    io.write_results_csv(rows, path)
    back = io.read_results_csv(path)
    assert np.array_equal(back, np.asarray(rows))


def test_results_csv_header_and_width_checks(tmp_path):
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError):
        io.write_results_csv([(1, 2, 3)], path)
    path.write_text("t,pl_lat,nope\n")
    with pytest.raises(ValueError):
        io.read_results_csv(path)


def test_results_csv_empty_table(tmp_path):
    path = tmp_path / "r.csv"
    io.write_results_csv([], path)
    assert io.read_results_csv(path).shape == (0, 7)


# ---------------------------------------------------------------------------
# the digest memo


def _memos() -> list[Path]:
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "plbounds").glob("stat-*.json"))


def _refuse_open(*args, **kwargs):
    raise AssertionError("opened the file")


@pytest.fixture
def settled(monkeypatch):
    """Any file is settled: its times are never later than the clock."""
    monkeypatch.setattr(io, "_SETTLED_NS", 0)


def test_a_settled_files_second_hash_opens_no_file(tmp_path, monkeypatch, settled):
    path = tmp_path / "input.bin"
    path.write_bytes(np.random.default_rng(3).bytes(3_000_000))  # three read chunks
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    assert io.file_sha256(path) == (sha, "read")
    memo, = _memos()
    assert memo.name == f"stat-{hashlib.sha256(os.path.realpath(path).encode()).hexdigest()}.json"
    stat = path.stat()
    want = [stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns]
    assert json.loads(memo.read_text()) == {"sha256": sha, "stat": want}
    monkeypatch.setattr(io, "open", _refuse_open, raising=False)
    link = tmp_path / "link.bin"
    link.symlink_to(path)
    for name in (path, str(path), link):  # one memo for the file's real path
        assert io.file_sha256(name) == (sha, "memo")
    assert _memos() == [memo]


def test_a_same_size_rewrite_with_its_mtime_restored_gives_the_new_digest(tmp_path, monkeypatch):
    # a file written more than the settle time before its hash is read;
    # a rewrite after that always carries a later ctime
    monkeypatch.setattr(io, "_SETTLED_NS", 20_000_000)
    path = tmp_path / "input.jsonl"
    path.write_text("[1.0, 0.0, 0.0, 0.0]\n[0.0, 1.0, 0.0, 0.0]\n")
    time.sleep(0.05)
    assert io.file_sha256(path)[1] == "read" and len(_memos()) == 1
    before = path.stat()
    path.write_text("[0.0, 1.0, 0.0, 0.0]\n[1.0, 0.0, 0.0, 0.0]\n")  # the two lines swapped
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, before.st_mtime_ns)
    assert after.st_ctime_ns != before.st_ctime_ns  # the only field that shows the rewrite
    assert io.file_sha256(path) == (hashlib.sha256(path.read_bytes()).hexdigest(), "read")


def test_a_file_changed_within_the_settle_window_is_never_memoised(tmp_path, monkeypatch):
    monkeypatch.setattr(io, "_SETTLED_NS", 3_600_000_000_000)  # an hour
    path = tmp_path / "input.bin"
    path.write_bytes(b"fresh")
    sha = hashlib.sha256(b"fresh").hexdigest()
    assert [io.file_sha256(path) for _ in range(2)] == [(sha, "read")] * 2 and _memos() == []
    # an mtime set back two hours leaves the ctime of the write, which is not settled
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 7_200_000_000_000))
    assert [io.file_sha256(path) for _ in range(2)] == [(sha, "read")] * 2 and _memos() == []


def test_a_stat_that_changes_during_hashing_is_never_memoised(tmp_path, monkeypatch, settled):
    path = tmp_path / "input.bin"
    path.write_bytes(b"before")

    def open_then_append(name, mode):
        fh = open(name, mode)
        with open(name, "ab") as writer:  # a writer that lands as the read begins
            writer.write(b", after")
        return fh

    monkeypatch.setattr(io, "open", open_then_append, raising=False)
    assert io.file_sha256(path) == (hashlib.sha256(b"before, after").hexdigest(), "read")
    assert _memos() == []
    monkeypatch.delattr(io, "open")
    assert io.file_sha256(path) == (hashlib.sha256(b"before, after").hexdigest(), "read")
    assert len(_memos()) == 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: "",
        lambda doc: json.dumps(doc)[:-9],
        lambda doc: json.dumps(doc["stat"]),
        lambda doc: json.dumps(dict(doc, sha256=doc["sha256"].upper())),
        lambda doc: json.dumps(dict(doc, sha256=doc["sha256"][:-1])),
        lambda doc: json.dumps(dict(doc, sha256=int(doc["sha256"], 16))),
        lambda doc: json.dumps(dict(doc, stat=doc["stat"][:-1])),
        lambda doc: json.dumps({"sha256": doc["sha256"]}),
        lambda doc: "[" * 100_000,
    ],
    ids=["empty", "truncated", "a_list", "upper_case", "short_digest", "digest_number", "short_stat", "no_stat", "deep"],
)
def test_a_corrupt_memo_gives_the_true_digest(tmp_path, settled, corrupt):
    path = tmp_path / "input.bin"
    path.write_bytes(b"input")
    sha = hashlib.sha256(b"input").hexdigest()
    assert io.file_sha256(path) == (sha, "read")
    memo, = _memos()
    text = memo.read_text()
    memo.write_text(corrupt(json.loads(text)))
    assert io.file_sha256(path) == (sha, "read")
    assert memo.read_text() == text  # written again
    assert io.file_sha256(path) == (sha, "memo")


def test_an_unusable_cache_directory_gives_the_true_digest(tmp_path, monkeypatch, settled):
    path = tmp_path / "input.bin"
    path.write_bytes(b"input")
    sha = hashlib.sha256(b"input").hexdigest()
    blocked = tmp_path / "blocked"
    blocked.write_text("")  # a cache home that is a file
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    assert [io.file_sha256(path) for _ in range(2)] == [(sha, "read")] * 2
    assert blocked.read_text() == ""

    def homeless(cls=None):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setattr(Path, "home", classmethod(homeless))
    assert [io.file_sha256(path) for _ in range(2)] == [(sha, "read")] * 2
    with pytest.raises(FileNotFoundError):
        io.file_sha256(tmp_path / "missing.bin")


# ---------------------------------------------------------------------------
# the derived-input cache


def _entries() -> list[Path]:
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "plbounds").glob("*.entry"))


def _cached(arrays, values, key="inputs"):
    """``io.cached`` of ``arrays`` and ``values``, loaded as they are read,
    and its outcome."""
    return io.cached("layout", key, lambda: (arrays, values), lambda a, v: (a, v))


_bits = st.sampled_from([
    0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0x7FF0000000000001, 0xFFF4000000000123, 0x7FFDEADBEEF00042,
]) | st.integers(0, 2**64 - 1)  # -0.0, subnormals, +-inf, NaNs with payload bits, and any other double
_arrays = hnp.arrays(np.uint64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=_bits)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.text(max_size=4), _arrays, max_size=4), st.dictionaries(st.text(max_size=4), _json), st.text())
def test_an_entry_gives_back_any_arrays_bit_for_bit(words, values, key):
    arrays = {name: a.view(np.float64) for name, a in words.items()}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"XDG_CACHE_HOME": tmp}):
        (_, miss), ((got, got_values), hit) = _cached(arrays, values, key), _cached(None, None, key)
    assert (miss, hit, list(got), got_values) == ("miss", "hit", list(arrays), values)
    for name, a in arrays.items():
        assert (got[name].dtype, got[name].shape, got[name].tobytes()) == (np.float64, a.shape, a.tobytes())


_ENTRIES = {
    "arrays": ({"q": np.array([[-0.0, 5e-324], [np.inf, np.nan]]), "none": np.empty((0, 3))}, {"samples": 3}),
    "only_empty_arrays": ({"none": np.empty((2, 0))}, {}),
}


def _misses_and_is_rewritten(arrays, values, corrupt: bytes) -> None:
    entry, = _entries()
    stored = entry.read_bytes()
    entry.write_bytes(corrupt)
    assert _cached(arrays, values)[1] == "miss" and entry.read_bytes() == stored
    assert _cached(arrays, values)[1] == "hit"


@pytest.mark.parametrize("name", _ENTRIES)
def test_an_entry_cut_short_or_grown_is_a_miss_and_is_rewritten(name):
    arrays, values = _ENTRIES[name]
    assert _cached(arrays, values)[1] == "miss"
    stored = _entries()[0].read_bytes()
    for size in range(len(stored)):
        _misses_and_is_rewritten(arrays, values, stored[:size])
    _misses_and_is_rewritten(arrays, values, stored + b"\0")


def test_an_entry_with_a_foreign_header_is_a_miss_and_is_rewritten():
    arrays, values = _ENTRIES["arrays"]
    assert _cached(arrays, values)[1] == "miss"
    head, data = _entries()[0].read_bytes().split(b"\n", 1)
    doc = json.loads(head)
    for header in (b"{not json", json.dumps(list(doc.values())).encode(), json.dumps(dict(doc, key="other")).encode()):
        _misses_and_is_rewritten(arrays, values, header + b"\n" + data)


_DAY_NS = 86_400_000_000_000


def _age(path: Path, days: float) -> None:
    then = time.time_ns() - int(days * _DAY_NS)
    os.utime(path, ns=(then, then))


def test_a_miss_deletes_the_files_no_command_used_for_30_days(tmp_path, monkeypatch, settled):
    assert io.UNUSED_NS == 30 * _DAY_NS
    arrays, values = _ENTRIES["arrays"]
    cache = Path(os.environ["XDG_CACHE_HOME"]) / "plbounds"
    assert _cached(arrays, values, "used")[1] == "miss"
    path = tmp_path / "input.bin"
    path.write_bytes(b"input")
    io.file_sha256(path)
    used = [*_entries(), *_memos()]
    unused = [cache / "layout-unused.entry", cache / "stat-unused.json", cache / "tmpunused.tmp"]
    fresh = cache / "layout-fresh.entry"
    for file in (*unused, fresh):
        file.write_bytes(b"")
    for file in (*unused, *used):
        _age(file, 31)
    _age(fresh, 29)
    # a hit, of an entry or of a memo, sets its file's mtime to now and deletes nothing
    assert _cached(arrays, values, "used")[1] == "hit" and io.file_sha256(path)[1] == "memo"
    assert all(file.exists() for file in unused)
    assert _cached(arrays, values, "new")[1] == "miss"
    new, = set(_entries()) - {*used, fresh}
    assert sorted(cache.iterdir()) == sorted([*used, fresh, new])
    # a cache directory that is a file can hold no entry: the value is derived as before
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    (blocked / "plbounds").write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    for _ in range(2):
        (got, got_values), outcome = _cached(arrays, values, "new")
        assert (outcome, got is arrays, got_values) == ("unavailable", True, values)
    assert (blocked / "plbounds").read_bytes() == b""
