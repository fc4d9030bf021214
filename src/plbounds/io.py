"""File formats (point clouds, quaternion lines, result tables, JSON documents) and the derived-input cache.

All binary formats are little-endian.  Every JSON document is written as
exactly ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, so
identical inputs produce identical bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import struct
import tempfile
import time
from functools import cache
from io import BytesIO
from itertools import chain
from pathlib import Path

import numpy as np

from .geometry import PointCloud

RESULT_COLUMNS = ("t", "pl_lat", "pl_lon", "pl_vert", "err_x", "err_y", "err_z")


def write_cloud_bin(cloud: PointCloud, path: Path | str) -> None:
    """u64 point count followed by count*3 f64 coordinates."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(cloud)))
        fh.write(np.ascontiguousarray(cloud.points, dtype="<f8").tobytes())


def read_cloud_bin(path: Path | str) -> PointCloud:
    with open(path, "rb") as fh:
        head, size = fh.read(8), os.fstat(fh.fileno()).st_size
        if len(head) < 8:
            raise ValueError(f"{path}: truncated point-cloud file")
        (count,) = struct.unpack("<Q", head)
        expect = 8 + count * 24
        if size != expect:
            raise ValueError(f"{path}: expected {expect} bytes for {count} points, got {size}")
        pts = np.empty((count, 3), dtype="<f8")
        if fh.readinto(pts) != count * 24:  # the file shrank since fstat
            raise ValueError(f"{path}: truncated point-cloud file")
    return PointCloud.adopt(pts)  # read straight into the array the cloud keeps


def _floatstr(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_SCALAR_TEXT = {str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: _floatstr, np.float64: _floatstr}
_SCALAR_TEXT[bool] = _SCALAR_TEXT[type(None)] = {True: "true", False: "false", None: "null"}.get
_NUMBERS = {int, float, np.float64, bool}


def _text(value, newline: str) -> str:
    kind = type(value)
    if kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](value)
    if kind not in (dict, list, tuple):
        raise TypeError(kind)
    if not value:
        return "{}" if kind is dict else "[]"
    inner, deeper = newline + "  ", newline + "    "
    if kind is dict:  # a key that is not a str fails to encode
        items = (f"{_SCALAR_TEXT[str](k)}: {_text(value[k], inner)}" for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # numbers never hold "[", "]" or ", ": the C encoder's compact text of a
    # list of numbers, or of a matrix of them, needs only its separators indented
    if (kinds := set(map(type, value))) <= _NUMBERS:
        return "[" + inner + json.dumps(value)[1:-1].replace(", ", "," + inner) + newline + "]"
    if kinds <= {list, tuple} and all(value) and set(map(type, chain.from_iterable(value))) <= _NUMBERS:
        rows = json.dumps(value)[2:-2].replace("], [", f"{inner}],{inner}[{deeper}").replace(", ", "," + deeper)
        return "[" + inner + "[" + deeper + rows + inner + "]" + newline + "]"
    return "[" + inner + ("," + inner).join(_text(v, inner) for v in value) + newline + "]"


def json_text(doc) -> str:
    """Exactly ``json.dumps(doc, sort_keys=True, indent=2)``, by joins; a document holding anything but exact
    JSON types (or ``np.float64``) is left whole to ``json.dumps``, so its text or error stays that function's."""
    with contextlib.suppress(TypeError, RecursionError):
        return _text(doc, "\n")
    return json.dumps(doc, sort_keys=True, indent=2)


def write_json(obj, path: Path | str) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(obj) + "\n")


def read_json(path: Path | str):
    """The JSON document in the file; invalid JSON raises ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_jsonl(rows, path: Path | str) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def read_jsonl(path: Path | str) -> list:
    """The JSON value on each non-blank line; a line that is not valid JSON
    raises ValueError naming the file and the line."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None
    return rows


def jsonl_line_number(path: Path | str, index: int) -> int:
    """1-based line of the ``index``-th value ``read_jsonl`` returns."""
    with open(path) as fh:
        return [n for n, line in enumerate(fh, start=1) if line.strip()][index]


def write_quaternion_lines(quats: np.ndarray, path: Path | str) -> None:
    """JSON-lines file of scalar-first quaternions, one array per line."""
    write_jsonl([[float(c) for c in q] for q in np.asarray(quats, dtype=float)], path)


def read_quaternion_lines(path: Path | str) -> np.ndarray:
    """The (M, 4) quaternions of a file ``write_quaternion_lines`` wrote: one
    JSON array of 4 numbers on each non-blank line.

    The file is parsed in blocks of whole lines by ``_read_plain_blocks``.
    A file it does not take is read again line by line with ``read_jsonl``,
    whose errors name the file and the line.  Both routes give the same bits.
    """
    arr = _read_plain_blocks(path)
    if arr is not None:
        return arr
    rows = read_jsonl(path)
    try:
        arr = np.asarray(rows, dtype=float)
    except OverflowError:  # an integer numeral beyond the float range
        for index, row in enumerate(rows):
            try:
                np.asarray(row, dtype=float)
            except OverflowError as exc:
                raise ValueError(f"{path}:{jsonl_line_number(path, index)}: {exc}") from None
        raise
    if arr.size == 0:
        return np.empty((0, 4))
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"{path}: each line must hold one 4-element quaternion")
    return arr


def _pair_table(rules: dict[bytes, bytes]) -> np.ndarray:
    """Flat (256 * 256) table: entry ``x << 8 | y`` is whether ``rules``
    lists ``y`` for ``x``."""
    table = np.zeros(1 << 16, dtype=bool)
    for xs, ys in rules.items():
        table[[x << 8 | y for x in xs for y in ys]] = True
    return table


_DIGITS = b"0123456789"
# A plain quaternion file, once its blanks (space, tab) are deleted, is
# lines that are empty or [n,n,...,n], each ended by LF or CR LF, with JSON
# numerals n: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.  Most of that
# grammar is which bytes may stand just before and just after each byte
# other than a digit or a point; a byte without an entry may not appear.
_NEIGHBOURS = {  # byte: (may stand before it, may stand after it)
    b"[": (b"\n", _DIGITS + b"-"),
    b",": (_DIGITS, _DIGITS + b"-"),
    b"]": (_DIGITS, b"\r\n"),
    b"-": (b"[,eE", _DIGITS),
    b"+": (b"eE", _DIGITS),
    b"eE": (_DIGITS, _DIGITS + b"+-"),
    b"\r": (b"]\n", b"\n"),
    b"\n": (b"]\r\n", b"[\r\n"),
}
_BEFORE_OK = _pair_table({x: before for x, (before, _) in _NEIGHBOURS.items()})
_AFTER_OK = _pair_table({x: after for x, (_, after) in _NEIGHBOURS.items()})
# An integer part that starts with 0 is that one digit, and a bare -0 is
# JSON's integer 0 where ``float`` reads -0.0.  _LEADING_ZERO: a byte that
# can start an integer part, then 0; _AFTER_LEADING_ZERO: that byte, then
# what may follow the 0.
_LEADING_ZERO = _pair_table({b"[,-": b"0"})
_AFTER_LEADING_ZERO = _pair_table({b"[,": bytes(set(range(256)) - set(_DIGITS)), b"-": b".eE"})
# Bytes read, checked and parsed at a time, then on to the end of the line:
# whole-file masks and copies would cost several times the file in memory.
_CHECK_CHUNK = 1 << 20
# Longest run of digits and points the fast path takes.  Longer integers
# would overflow to inf where the JSON route raises; no double's shortest
# form comes near it.
_MAX_RUN = 300
_PAD = np.frombuffer(b"\n\n", dtype=np.uint8)


def _read_plain_blocks(path: Path | str) -> np.ndarray | None:
    """The quaternions of a file read ``_CHECK_CHUNK`` bytes, then on to the
    end of that line, at a time, each block parsed by one ``np.loadtxt`` call;
    None unless every block passes ``_plain_lines`` and gives 4 values a line,
    or when no block holds a quaternion."""
    parts = []
    with open(path, "rb") as fh:
        while block := fh.read(_CHECK_CHUNK):
            block += fh.readline()
            if not _plain_lines(np.frombuffer(block, np.uint8)):
                return None
            if b"[" not in block:  # only blanks pass the check without one
                continue
            try:
                arr = np.loadtxt(BytesIO(block.translate(None, b"[]\r")), delimiter=",", ndmin=2, encoding="ascii")
            except ValueError:  # e.g. a line of 5 numbers, or the numeral 1.2.3
                return None
            if arr.shape[1] != 4:
                return None
            parts.append(arr)
    return np.concatenate(parts) if parts else None


def _plain_lines(chunk: np.ndarray) -> bool:
    """Whether ``np.loadtxt`` may read the bytes of whole lines ``chunk``:
    once blanks (space, tab) are deleted, every line follows
    ``_NEIGHBOURS``, no integer part is a bare -0 or has a leading 0, and no
    run of digits and points is longer than ``_MAX_RUN``.  On such lines
    ``np.loadtxt``, with brackets and CRs deleted, gives the bits JSON gives
    or raises: it raises on all that these checks let through and JSON
    rejects, a blank inside a numeral, a numeral ``float`` rejects too
    (``1.2.3``) and a line of blanks.  The number of values per line is
    left to the shape of its result.
    """
    text = np.concatenate((_PAD, chunk[(chunk != ord(" ")) & (chunk != ord("\t"))], _PAD))
    inner = text[1:-1]  # the line end padded on each side is checked too
    at = np.flatnonzero((inner < ord(".")) | (inner > ord("9")) | (inner == ord("/"))) + 1
    byte, before, after = text[at], text[at - 1], text[at + 1]
    code = byte.astype(np.uint16) << 8
    if not (np.take(_BEFORE_OK, code | before).all() and np.take(_AFTER_OK, code | after).all()):
        return False
    # a 0 after ``byte`` that begins an integer part (a minus after e or E signs an exponent)
    zero = np.take(_LEADING_ZERO, code | after) & (before != ord("e")) & (before != ord("E"))
    if not (np.take(_AFTER_LEADING_ZERO, code | text[np.minimum(at + 2, len(text) - 1)]) | ~zero).all():
        return False
    return int(np.diff(at).max()) <= _MAX_RUN + 1


def write_results_csv(rows, path: Path | str) -> None:
    """Per-timestep table, the (T, 7) rows t, pl_lat, pl_lon, pl_vert,
    err_x, err_y, err_z, each value written as the ``repr`` of its float."""
    table = np.asarray(rows, dtype=float)
    if table.size and (table.ndim != 2 or table.shape[1] != len(RESULT_COLUMNS)):
        raise ValueError(f"result row must have {len(RESULT_COLUMNS)} fields")
    with open(path, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in table.tolist())


def read_results_csv(path: Path | str) -> np.ndarray:
    """The (T, 7) table ``write_results_csv`` wrote."""
    with open(path) as fh:
        header = fh.readline().strip()
        if tuple(header.split(",")) != RESULT_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header!r}")
        body = fh.read().strip()
    if not body:
        return np.empty((0, len(RESULT_COLUMNS)))
    table = np.asarray([[float(v) for v in line.split(",")] for line in body.splitlines()], dtype=float)
    if table.shape[1] != len(RESULT_COLUMNS):
        raise ValueError(f"{path}: expected {len(RESULT_COLUMNS)} fields per row")
    return table


# ---------------------------------------------------------------------------
# the derived-input cache


# A file whose mtime and ctime are both this much older than the moment its
# hashing began is settled: any later write to it sets a newer ctime, which
# no user can set back, even where the file system's clock is coarse.  Only
# a settled file's digest is remembered (git's "racily clean" rule).
_SETTLED_NS = 2_000_000_000
# A file in the cache directory that no command has read or written for
# this long is deleted by the next miss.
UNUSED_NS = 30 * 24 * 3600 * 1_000_000_000


def file_sha256(path: Path | str) -> tuple[str, str]:
    """SHA-256 of the file's bytes, and how it was found: ``memo``, the
    digest remembered for the file's unchanged stat data, or ``read``, the
    bytes read in 1 MB chunks.

    The memo is ``stat-<SHA-256 of the file's real path>.json`` in
    ``cache_dir()``: the file's ``[st_dev, st_ino, st_size, st_mtime_ns,
    st_ctime_ns]`` and its ``sha256``.  A read writes it only when the
    file's stat data did not change while it was read and the file was
    settled (``_SETTLED_NS``) when the read began.  A memo that cannot be
    read, or none, means the bytes are read."""
    stat = _stat_fields(os.stat(path))
    try:
        memo = cache_dir() / f"stat-{hashlib.sha256(os.fsencode(os.path.realpath(path))).hexdigest()}.json"
    except RuntimeError:  # no home directory
        memo = None
    if memo is not None:
        with contextlib.suppress(OSError, ValueError, LookupError, TypeError, RecursionError):
            doc = json.loads(memo.read_bytes())
            if doc["stat"] == stat and re.fullmatch("[0-9a-f]{64}", doc["sha256"]):
                with contextlib.suppress(OSError):
                    os.utime(memo)  # used now: see ``UNUSED_NS``
                return doc["sha256"], "memo"
    began = time.time_ns()
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
        unchanged = _stat_fields(os.fstat(fh.fileno())) == stat
    sha = digest.hexdigest()
    if memo is not None and unchanged and max(stat[3:]) <= began - _SETTLED_NS:
        _replace_entry(memo, lambda fh: fh.write(json.dumps({"sha256": sha, "stat": stat}).encode()))
    return sha, "read"


def _stat_fields(stat: os.stat_result) -> list[int]:
    return [stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns]


@cache
def code_tag() -> str:
    """Hash of numpy's version and of every package source, in name order:
    the code that derives any cached value, so that a change to either misses."""
    digest = hashlib.sha256(np.__version__.encode())
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(source.read_bytes())
    return digest.hexdigest()


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/plbounds``, or ``~/.cache/plbounds`` when that is unset, empty or relative."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "plbounds"


def cached(kind: str, key: str, derive, load):
    """``load(*derive())``, kept in ``cache_dir()`` as ``<kind>-<SHA-256 of
    "<key> <code_tag()>">.entry`` (``key`` names the inputs), and ``hit``,
    ``miss`` or ``unavailable`` (no cache directory could be found or written).

    ``derive()`` returns a dict of named float64 arrays and a dict of JSON
    values.  An entry is one JSON line, ``{"key": key, "shapes": {name:
    shape}, "values": values}``, then each array's little-endian bytes in
    that order.  ``load(arrays, values)`` checks them as any input is checked
    and builds the value; an entry that cannot be read, or that ``load``
    rejects by raising, is a miss.  A hit sets its entry's mtime to now; a
    miss first deletes every file in the cache directory unused for
    ``UNUSED_NS``, then stores the derivation, if it succeeds, through a
    temporary file that ``os.replace`` puts in place."""
    try:
        name = hashlib.sha256(f"{key} {code_tag()}".encode()).hexdigest()
        entry = cache_dir() / f"{kind}-{name}.entry"
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return load(*derive()), "unavailable"
    unreadable = (OSError, ValueError, LookupError, TypeError, AttributeError, ArithmeticError, RecursionError)
    with contextlib.suppress(*unreadable):
        value = load(*_read_entry(entry, key))
        with contextlib.suppress(OSError):
            os.utime(entry)
        return value, "hit"
    arrays, values = derive()
    value = load(arrays, values)
    head = json.dumps({"key": key, "shapes": {n: a.shape for n, a in arrays.items()}, "values": values})
    data = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values()]
    _evict_unused(entry.parent)
    stored = _replace_entry(entry, lambda fh: fh.writelines([head.encode(), b"\n", *data]))
    return value, "miss" if stored else "unavailable"


def _read_entry(entry: Path, key: str) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and values of the entry ``cached`` wrote for ``key``;
    raises unless the entry is whole and names ``key``."""
    with open(entry, "rb") as fh:
        line, data = fh.readline(), fh.read()
    head = json.loads(line)
    if not line.endswith(b"\n") or head["key"] != key:
        raise ValueError(f"{entry} is not a whole entry of {key!r}")
    arrays, at = {}, 0
    for name, shape in head["shapes"].items():
        count = math.prod(shape)
        arrays[name] = np.frombuffer(data, dtype="<f8", count=count, offset=at).reshape(shape)
        at += 8 * count
    if at != len(data):
        raise ValueError(f"{entry} holds {len(data) - at} bytes beyond its arrays")
    return arrays, head["values"]


def _evict_unused(directory: Path) -> None:
    """Delete every file in ``directory`` (entries, memos, temporary files) unused for ``UNUSED_NS``."""
    oldest = time.time_ns() - UNUSED_NS
    with contextlib.suppress(OSError), os.scandir(directory) as files:
        for file in files:
            with contextlib.suppress(OSError):
                if file.stat(follow_symlinks=False).st_mtime_ns < oldest:
                    os.unlink(file.path)


def _replace_entry(entry: Path, write) -> bool:
    """Whether ``write(fh)`` could fill ``entry``: it writes a temporary file
    beside it, which ``os.replace`` then puts in place."""
    with contextlib.suppress(OSError):
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, temporary = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(temporary, entry)
            return True
        finally:
            Path(temporary).unlink(missing_ok=True)
    return False
