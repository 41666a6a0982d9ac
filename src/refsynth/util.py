"""Small shared helpers: JSON reading and writing, rng derivation, weighted choice, ordinals."""

from __future__ import annotations

import codecs
import hashlib
import io
import json
import random
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DataError, MalformedDocument

T = TypeVar("T")


def _reject_constant(name: str) -> object:
    raise MalformedDocument(f"{name} is not a JSON value")


# Python's json module reads NaN, Infinity and -Infinity, which JSON does not have.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _raise_if_unreadable(exc: BaseException) -> None:
    """Raise :class:`MalformedDocument` if a decoder's ``exc`` is one of the two
    JSON inputs Python cannot hold: nesting deeper than the recursion limit,
    or an integer longer than the int-string conversion limit."""
    if isinstance(exc, RecursionError):
        raise MalformedDocument("its nesting is too deep to read") from None
    if type(exc) is ValueError:  # not JSONDecodeError or UnicodeDecodeError
        raise MalformedDocument(f"it holds an integer too long to read ({str(exc).split(';')[0]})") from None


def decode_json(text: str | bytes) -> object:
    """:func:`json.loads`, except that ``NaN``, ``Infinity`` and ``-Infinity`` are rejected.

    Text that is not JSON raises ``JSONDecodeError`` or ``UnicodeDecodeError``;
    those three tokens, which are not JSON either, raise
    :class:`MalformedDocument` naming the token, as do nesting too deep and
    an integer too long to read.
    """
    if isinstance(text, bytes):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    try:
        return _DECODER.decode(text)
    except (RecursionError, ValueError) as exc:
        _raise_if_unreadable(exc)
        raise


def _lenient_json(text: str) -> object:
    """:func:`json.loads`, with nesting too deep and an integer too long to
    read raised as in :func:`decode_json`."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        _raise_if_unreadable(exc)
        raise


def load_json(source: IO, label: str, *, schema_checks_numbers: bool = False) -> object:
    """Parse the one JSON document in a text or byte stream.

    Invalid JSON, bytes that are not UTF-8, the tokens ``NaN``,
    ``Infinity`` and ``-Infinity``, nesting too deep and an integer too long
    to read raise :class:`MalformedDocument` naming the stream's file, or
    ``label`` when the stream has no name.  With
    ``schema_checks_numbers`` the three tokens are read as floats instead,
    for a caller whose schema rejects them where they stand, which names
    the record holding them.
    """
    if not isinstance(source, io.TextIOBase):
        source = codecs.getreader("utf-8")(source)
    decode = _lenient_json if schema_checks_numbers else decode_json
    try:
        return decode(source.read())
    except (json.JSONDecodeError, UnicodeDecodeError, MalformedDocument) as exc:
        raise MalformedDocument(f"{getattr(source, 'name', label)} is not valid JSON: {exc}") from exc


def parse_jsonl(
    lines: Iterable[str | bytes],
    name: str,
    parse: Callable[[object], T],
    decode: Callable[[str | bytes], object] = decode_json,
) -> Iterator[T]:
    """``parse(decode(line))`` for each non-blank line, as it is read.

    A line that is not UTF-8 JSON (see :func:`decode_json`, whose errors any
    other ``decode`` raises too), or that ``decode`` or ``parse`` rejects
    with a :class:`DataError`, stops the read with a ``DataError`` naming
    ``name:line``; the records before it have already been yielded.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = parse(decode(line))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{name}:{lineno} is not valid JSON") from exc
        except DataError as exc:
            raise DataError(f"{name}:{lineno}: {exc}") from exc
        yield record


def read_jsonl(
    path: str, parse: Callable[[object], T], decode: Callable[[str | bytes], object] = decode_json
) -> Iterator[T]:
    """:func:`parse_jsonl` over a file, held open while the generator runs.

    Lines are read as bytes, so a line that is not UTF-8 is named like any
    other bad line."""
    with open(path, "rb") as handle:
        yield from parse_jsonl(handle, path, parse, decode)


def derive_rng(seed: int, *keys: object) -> random.Random:
    """Random stream keyed by (seed, *keys).

    Streams are independent of iteration order and worker layout, so any
    pipeline that keys its randomness this way produces identical output at
    any parallelism level.
    """
    material = "|".join([str(seed), *[str(k) for k in keys]])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def hash_uniform(seed: int, *keys: object) -> float:
    """Deterministic pseudo-uniform draw in [0, 1) keyed by (seed, *keys)."""
    material = "|".join([str(seed), *[str(k) for k in keys]])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one item with probability proportional to its weight."""
    if not items:
        raise ValueError("weighted_choice over an empty sequence")
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    total = float(sum(weights))
    if total <= 0.0 or any(w < 0.0 for w in weights):
        raise ValueError("weights must be non-negative with a positive sum")
    r = rng.random() * total
    acc = 0.0
    for item, w in zip(items, weights):
        acc += w
        if r < acc:
            return item
    return items[-1]


_ORDINAL_WORDS = (
    "first", "second", "third", "fourth", "fifth", "sixth", "seventh",
    "eighth", "ninth", "tenth", "eleventh", "twelfth", "thirteenth",
    "fourteenth", "fifteenth", "sixteenth", "seventeenth", "eighteenth",
    "nineteenth", "twentieth",
)


def ordinal_word(n: int) -> str:
    """English ordinal for a 1-based rank ("first", "second", ...)."""
    if n < 1:
        raise ValueError(f"ordinal rank must be >= 1, got {n}")
    if n <= len(_ORDINAL_WORDS):
        return _ORDINAL_WORDS[n - 1]
    if n % 100 in (11, 12, 13):
        return f"{n}th"
    suffix = {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"
